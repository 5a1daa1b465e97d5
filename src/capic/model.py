"""Trained paired-encoder model: two nets whose outputs are the principal functions.

Training ends by folding the whitening fitted on the training split
(see :mod:`capic.whitening`) into each net's linear output layer,
``W <- A W`` and ``b <- A (b - mean)``.  The model also keeps the
training-split diagonal of the folded nets and the final loss terms of
the nets before the fold, and serializes to a versioned JSON document.
The trained and the folded nets each take their own blocked pass over
the training split (:func:`capic.neural.encode`); no activations are
handed from one pass to the next.

Precision: the nets are trained in float32 (see :mod:`capic.neural`)
and handed over as float64 copies of the float32 values.  Everything
from there on runs in float64: the whitening fit and fold, evaluation
and the weights written to ``model.json``, which ``repr`` keeps exact,
so a save/load round trip is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError
from .fileio import read_json_object, write_json_atomic
from .neural import MlpConfig, MlpParams, encode, train_ca_nn
from .objective import BatchOutputs, pic_loss
from .whitening import fit_whitening, principal_functions

FORMAT_VERSION = 2


@dataclass
class CaNnModel:
    f_params: MlpParams   # x features -> principal functions f (d x n)
    g_params: MlpParams   # y features -> principal functions g (d x n)
    pic_diagonal: np.ndarray   # training-split diagonal of the nets, clamped for reporting
    raw_diagonal: np.ndarray
    loss_final: float     # training-split loss terms of the nets before the fold
    kyfan_final: float
    metadata: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.f_params.config.out_width


def _fold(p: MlpParams, a, mean) -> MlpParams:
    """The net whose output is ``a @ (out - mean)`` for p's output ``out``."""
    w, b = a @ p.weights[-1], a @ (p.biases[-1] - mean)
    return MlpParams(p.config, [*p.weights[:-1], w], [*p.biases[:-1], b])


def fit_ca_nn_model(data, f_cfg, g_cfg, t_cfg, metadata=None):
    """Train, whiten on the training split, fold the whitening into the nets.

    Returns ``(model, history)``.  One pass of the trained nets over the
    training split gives the whitening and the final loss terms, and one
    pass of the folded nets gives their training-split outputs: the ones
    :func:`capic.experiment.evaluate_model` reports, whose diagonal the
    model keeps.  Each pass is an :func:`~capic.neural.encode`, once per
    distinct column (repeated columns: see :mod:`capic.datasets`) in
    fixed blocks, so no pass holds a whole split's activations.
    """
    f_params, g_params, history = train_ca_nn(data, f_cfg, g_cfg, t_cfg)
    (x, y), (x_codes, y_codes) = data.train_arrays(), data.train_codes
    f_out, g_out = encode(f_params, x, x_codes), encode(g_params, y, y_codes)
    transform = fit_whitening(f_out, g_out)
    final = pic_loss(BatchOutputs(f_out, g_out), eps=t_cfg.loss_eps)
    f_net = _fold(f_params, transform.a, transform.mean_f)
    g_net = _fold(g_params, transform.b, transform.mean_g)
    pf = principal_functions(encode(f_net, x, x_codes), encode(g_net, y, y_codes))
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
        f_params=f_net,
        g_params=g_net,
        pic_diagonal=pf.pic_diagonal,
        raw_diagonal=pf.raw_diagonal,
        loss_final=final.loss,
        kyfan_final=final.kyfan_term,
        metadata=meta,
    )
    return model, history


def _params_to_doc(params: MlpParams) -> dict:
    cfg = params.config
    doc = {"layer_widths": list(cfg.layer_widths), "activation": cfg.activation,
           "init_seed": cfg.init_seed}
    for name in ("weights", "biases"):
        doc[name] = [{"shape": list(a.shape), "data": a.ravel().tolist()}
                     for a in getattr(params, name)]
    return doc


def _field(doc, key, where="", read=None):
    """``doc[key]``, converted by ``read`` if given.

    A missing key, or a value ``read`` rejects with a ``TypeError`` or
    ``ValueError``, raises ContractViolationError naming ``where + key``.
    """
    if not isinstance(doc, dict) or key not in doc:
        raise ContractViolationError(f"model document is missing {where}{key}")
    if read is None:
        return doc[key]
    try:
        return read(doc[key])
    except (TypeError, ValueError) as exc:
        raise ContractViolationError(f"model document has a malformed {where}{key}: {exc}") from None


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _ints(value) -> list:
    return [int(k) for k in value]


def _params_from_doc(doc, where) -> MlpParams:
    def array(block, at):
        shape = _field(block, "shape", at, _ints)
        return _field(block, "data", at, lambda data: _floats(data).reshape(shape))

    weights, biases = (
        [array(a, f"{where}{name}[{i}].") for i, a in enumerate(_field(doc, name, where, list))]
        for name in ("weights", "biases")
    )
    cfg = MlpConfig(
        _field(doc, "layer_widths", where, _ints),
        _field(doc, "activation", where),
        _field(doc, "init_seed", where),
    )
    return MlpParams(cfg, weights, biases)


def model_to_doc(model: CaNnModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "f_net": _params_to_doc(model.f_params),
        "g_net": _params_to_doc(model.g_params),
        "loss_final": model.loss_final,
        "kyfan_final": model.kyfan_final,
        "pics": {"clamped": model.pic_diagonal.tolist(), "raw": model.raw_diagonal.tolist()},
        "metadata": model.metadata,
    }


def model_from_doc(doc: dict) -> CaNnModel:
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ContractViolationError(f"unsupported model format version {version!r}")
    f_params = _params_from_doc(_field(doc, "f_net"), "f_net.")
    g_params = _params_from_doc(_field(doc, "g_net"), "g_net.")
    pics = _field(doc, "pics")
    return CaNnModel(
        f_params=f_params,
        g_params=g_params,
        pic_diagonal=_field(pics, "clamped", "pics.", _floats),
        raw_diagonal=_field(pics, "raw", "pics.", _floats),
        loss_final=_field(doc, "loss_final"),
        kyfan_final=_field(doc, "kyfan_final"),
        metadata=doc.get("metadata", {}),
    )


def save_model(model: CaNnModel, path):
    write_json_atomic(path, model_to_doc(model))


def load_model(path) -> CaNnModel:
    return model_from_doc(read_json_object(path))

