"""Trained paired-encoder model: nets, whitening transform, estimates.

The model bundles everything needed to evaluate principal functions on
new samples and serializes to a versioned JSON document (net configs
plus flat parameter arrays, whitening matrices, estimated diagonal).

Precision: the nets are trained in float32 (see :mod:`capic.neural`)
and handed over as float64 copies of the float32 values.  Everything
from there on runs in float64: the whitening fit, the principal
functions, evaluation and the weights written to ``model.json``, which
``repr`` keeps exact, so a save/load round trip is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError
from .fileio import write_json_atomic
from .neural import MlpConfig, MlpParams, forward, train_ca_nn
from .whitening import WhiteningTransform, apply_whitening, fit_whitening

FORMAT_VERSION = 1


@dataclass
class CaNnModel:
    f_params: MlpParams
    g_params: MlpParams
    transform: WhiteningTransform
    pic_diagonal: np.ndarray   # training-set estimate, clamped for reporting
    raw_diagonal: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.f_params.config.out_width

    def principal_f(self, x_batch) -> np.ndarray:
        """Principal-function values of preprocessed x features (d x n)."""
        out, _ = forward(self.f_params, x_batch)
        return self.transform.a @ (out - self.transform.mean_f[:, None])

    def principal_g(self, y_batch) -> np.ndarray:
        out, _ = forward(self.g_params, y_batch)
        return self.transform.b @ (out - self.transform.mean_g[:, None])


def fit_ca_nn_model(data, f_cfg, g_cfg, t_cfg, metadata=None):
    """Train, fit whitening on the training split, assemble the model.

    Returns ``(model, history)``.  The whitening transform and the
    reported diagonal come from the training split alone; evaluation on
    held-out data reuses the same transform.
    """
    f_params, g_params, history = train_ca_nn(data, f_cfg, g_cfg, t_cfg)
    x, y = data.train_arrays()
    f_out, _ = forward(f_params, x)
    g_out, _ = forward(g_params, y)
    transform = fit_whitening(
        f_out, g_out, fitted_on=str(data.provenance.get("source", ""))
    )
    pf = apply_whitening(transform, f_out, g_out)
    meta = dict(metadata or {})
    meta.setdefault("x_kind", data.x_kind)
    meta.setdefault("y_kind", data.y_kind)
    if data.x_labels is not None:
        meta.setdefault("x_labels", [str(l) for l in data.x_labels])
    if data.y_labels is not None:
        meta.setdefault("y_labels", [str(l) for l in data.y_labels])
    std = data.provenance.get("standardization")
    if std is not None:
        meta.setdefault("standardization", std)
    model = CaNnModel(
        f_params=f_params,
        g_params=g_params,
        transform=transform,
        pic_diagonal=pf.pic_diagonal,
        raw_diagonal=pf.raw_diagonal,
        metadata=meta,
    )
    return model, history


def _params_to_doc(params: MlpParams) -> dict:
    cfg = params.config
    return {
        "layer_widths": list(cfg.layer_widths),
        "activation": cfg.activation,
        "init_seed": cfg.init_seed,
        "output_clip": cfg.output_clip,
        "weights": [
            {"shape": list(w.shape), "data": w.ravel().tolist()} for w in params.weights
        ],
        "biases": [
            {"shape": list(b.shape), "data": b.ravel().tolist()} for b in params.biases
        ],
    }


def _params_from_doc(doc: dict) -> MlpParams:
    cfg = MlpConfig(
        layer_widths=tuple(doc["layer_widths"]),
        activation=doc["activation"],
        init_seed=doc["init_seed"],
        output_clip=doc["output_clip"],
    )
    weights = [
        np.asarray(w["data"], dtype=np.float64).reshape(w["shape"]) for w in doc["weights"]
    ]
    biases = [
        np.asarray(b["data"], dtype=np.float64).reshape(b["shape"]) for b in doc["biases"]
    ]
    return MlpParams(cfg, weights, biases)


def model_to_doc(model: CaNnModel) -> dict:
    t = model.transform
    return {
        "format_version": FORMAT_VERSION,
        "f_net": _params_to_doc(model.f_params),
        "g_net": _params_to_doc(model.g_params),
        "whitening": {
            "a": t.a.tolist(),
            "b": t.b.tolist(),
            "mean_f": t.mean_f.tolist(),
            "mean_g": t.mean_g.tolist(),
            "fitted_on": t.fitted_on,
        },
        "pics": {
            "clamped": model.pic_diagonal.tolist(),
            "raw": model.raw_diagonal.tolist(),
        },
        "metadata": model.metadata,
    }


def model_from_doc(doc: dict) -> CaNnModel:
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ContractViolationError(f"unsupported model format version {version!r}")
    w = doc["whitening"]
    transform = WhiteningTransform(
        a=np.asarray(w["a"], dtype=np.float64),
        b=np.asarray(w["b"], dtype=np.float64),
        mean_f=np.asarray(w["mean_f"], dtype=np.float64),
        mean_g=np.asarray(w["mean_g"], dtype=np.float64),
        fitted_on=w.get("fitted_on", ""),
    )
    return CaNnModel(
        f_params=_params_from_doc(doc["f_net"]),
        g_params=_params_from_doc(doc["g_net"]),
        transform=transform,
        pic_diagonal=np.asarray(doc["pics"]["clamped"], dtype=np.float64),
        raw_diagonal=np.asarray(doc["pics"]["raw"], dtype=np.float64),
        metadata=doc.get("metadata", {}),
    )


def save_model(model: CaNnModel, path):
    write_json_atomic(path, model_to_doc(model))


def load_model(path) -> CaNnModel:
    with open(path) as fh:
        return model_from_doc(json.load(fh))

