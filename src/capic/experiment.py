"""Experiment orchestration: config documents, runs, artifact export.

A run is described by one JSON document::

    {
      "version": 1,
      "mode": "train",                  # or "svd"
      "output_dir": "runs/demo",        # optional, see resolve rules
      "d": 5,
      "dataset": {"source": "bsc", "n_bits": 5, "delta": 0.1, "p": 0.5,
                  "n_samples": 15000, "n_test": 1500, "seed": 7},
      "f_net": {"hidden": [32, 32], "activation": "relu", "seed": 11},
      "g_net": {"hidden": [32, 32], "activation": "relu", "seed": 13},
      "train": {"epochs": 2000, "batch_size": "full", "optimizer": "gd",
                "lr": 0.01, "loss_eps": 0.001, "seed": 17},
      "planes": [[0, 1]]
    }

Dataset sources: ``bsc``, ``gaussian``, ``multimodal`` (synthetic, all
seeded), ``csv`` (path + column schema + optional standardize /
test_fraction / split_seed) and ``pmf_csv`` (exact joint table, svd
mode only).  A ``--seed S`` override rewrites every seed in the
document deterministically (dataset S, f_net S+1, g_net S+2, train
S+3).  Artifacts carry the hash of the resolved config and contain no
timestamps, so a rerun with the same numpy/BLAS build and the same BLAS
thread count reproduces them byte for byte (see :mod:`capic.fileio`).
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

import numpy as np

from . import factor_plane as fp
from .classical import ca_decompose, contingency_from_pmf, contingency_from_samples
from .datasets import PairedDataset, Split, load_csv, one_hot_decode
from .errors import ContractViolationError, CsvParseError
from .fileio import csv_text, sha256_of_json, write_json_atomic, write_text_atomic
from .model import CaNnModel, fit_ca_nn_model, load_model, save_model
from .neural import MlpConfig, TrainConfig, evaluate_loss, forward, mlp_init
from .oracles import (
    BscSpec,
    GaussianPairSpec,
    bsc_sample,
    gaussian_pair_sample,
    multimodal_gaussian_sample,
)
from .whitening import apply_whitening

CONFIG_VERSION = 1
OUTPUT_DIR_ENV = "CA_OUTPUT_DIR"


def load_config(path) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if cfg.get("version") != CONFIG_VERSION:
        raise ContractViolationError(
            f"unsupported config version {cfg.get('version')!r}"
        )
    return cfg


def resolve_output_dir(out_dir=None, configured=None):
    """The first of ``out_dir``, ``configured`` and ``$CA_OUTPUT_DIR`` that is set.

    Returns None when none of them is.
    """
    if out_dir is not None:
        return str(out_dir)
    if configured is not None:
        return configured
    return os.environ.get(OUTPUT_DIR_ENV) or None


def resolve_config(config, seed=None, out_dir=None) -> dict:
    """Fill overrides into a config document (returns a copy)."""
    cfg = json.loads(json.dumps(config))  # deep copy, JSON-safe by construction
    if seed is not None:
        cfg.setdefault("dataset", {})["seed"] = seed
        cfg["dataset"]["split_seed"] = seed
        cfg.setdefault("f_net", {})["seed"] = seed + 1
        cfg.setdefault("g_net", {})["seed"] = seed + 2
        cfg.setdefault("train", {})["seed"] = seed + 3
    output_dir = resolve_output_dir(out_dir, cfg.get("output_dir"))
    if output_dir is None:
        raise ContractViolationError(
            f"no output directory: set output_dir, pass --out, or export {OUTPUT_DIR_ENV}"
        )
    cfg["output_dir"] = output_dir
    return cfg


def config_hash(cfg: dict) -> str:
    """Hash of a resolved config, ignoring where the artifacts land."""
    return sha256_of_json({k: v for k, v in cfg.items() if k != "output_dir"})


#: Samplers of the synthetic sources, called with the dataset config,
#: the total sample count and the seed.
_SAMPLERS = {
    "bsc": lambda c, n, seed: bsc_sample(
        BscSpec(n_bits=int(c["n_bits"]), delta=float(c["delta"]), p=float(c.get("p", 0.5))),
        n, seed=seed,
    ),
    "gaussian": lambda c, n, seed: gaussian_pair_sample(
        GaussianPairSpec(
            sigma1=float(c["sigma1"]), sigma2=float(c["sigma2"]), n_samples=n, seed=seed
        )
    ),
    "multimodal": lambda c, n, seed: multimodal_gaussian_sample(
        mu0=c["mu0"], mu1=c["mu1"], cov=c["cov"], p_mode=float(c.get("p_mode", 0.5)),
        n=n, seed=seed,
    ),
}


def build_dataset(dcfg: dict) -> PairedDataset:
    """Make the dataset a config's ``dataset`` block describes.

    Synthetic sources draw ``n_samples + n_test`` samples; with
    ``n_test > 0`` the first ``n_samples`` form the train split and the
    rest the test split.
    """
    source = dcfg.get("source")
    if source == "csv":
        return load_csv(
            dcfg["path"], dcfg["schema"],
            standardize=bool(dcfg.get("standardize", False)),
            test_fraction=float(dcfg.get("test_fraction", 0.0)),
            split_seed=int(dcfg.get("split_seed", dcfg.get("seed", 0))),
        )
    if source not in _SAMPLERS:
        raise ContractViolationError(f"unknown dataset source {source!r}")
    n_train = int(dcfg["n_samples"])
    n_test = int(dcfg.get("n_test", 0))
    n = n_train + n_test
    ds = _SAMPLERS[source](dcfg, n, int(dcfg.get("seed", 0)))
    if n_test > 0:
        ds.split = Split(train_idx=np.arange(n_train), test_idx=np.arange(n_train, n))
    return ds


def read_pmf_csv(path):
    """Joint-table CSV: header row carries y labels, first column x labels."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CsvParseError(f"{path}: file is empty", line=1)
    y_labels = rows[0][1:]
    if not y_labels:
        raise CsvParseError(f"{path}: header has no y labels", line=1)
    x_labels, table = [], []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(y_labels) + 1:
            raise CsvParseError(f"{path}: row width mismatch", line=line_no)
        x_labels.append(row[0])
        try:
            table.append([float(v) for v in row[1:]])
        except ValueError:
            raise CsvParseError(f"{path}: non-numeric table entry", line=line_no) from None
    return np.asarray(table), tuple(x_labels), tuple(y_labels)


def _mlp_config(net_cfg: dict, in_width: int, d: int) -> MlpConfig:
    hidden = [int(h) for h in net_cfg.get("hidden", [32, 32])]
    return MlpConfig(
        layer_widths=tuple([in_width] + hidden + [d]),
        activation=net_cfg.get("activation", "relu"),
        init_seed=int(net_cfg.get("seed", 0)),
        output_clip=net_cfg.get("output_clip"),
    )


def _train_config(tcfg: dict) -> TrainConfig:
    batch = tcfg.get("batch_size", "full")
    return TrainConfig(
        epochs=int(tcfg["epochs"]),
        batch_size=batch if batch == "full" else int(batch),
        optimizer=tcfg.get("optimizer", "gd"),
        lr=float(tcfg.get("lr", 0.01)),
        beta1=float(tcfg.get("beta1", 0.9)),
        beta2=float(tcfg.get("beta2", 0.999)),
        adam_eps=float(tcfg.get("adam_eps", 1e-8)),
        loss_eps=float(tcfg.get("loss_eps", 1e-3)),
        seed=int(tcfg.get("seed", 0)),
    )


def category_g_points(model: CaNnModel, labels):
    """Per-category principal-function values of a one-hot y encoder."""
    k = len(labels)
    eye = np.eye(k)
    return model.principal_g(eye)


def evaluate_model(model: CaNnModel, data: PairedDataset):
    """Apply the stored whitening to train and (if present) test splits."""
    x_tr, y_tr = data.train_arrays()

    def raw(params, mat):
        out, _ = forward(params, mat)
        return out

    train_pf = apply_whitening(
        model.transform, raw(model.f_params, x_tr), raw(model.g_params, y_tr)
    )
    test_pf = None
    test = data.test_arrays()
    if test is not None:
        x_te, y_te = test
        test_pf = apply_whitening(
            model.transform, raw(model.f_params, x_te), raw(model.g_params, y_te)
        )
    return train_pf, test_pf


def _write_factor_table(path, first, letter, labels, points):
    """One row per point (a row of ``points``): its label, then its coordinates.

    Row ``i`` takes ``labels[i]``.
    """
    header = [first] + [f"{letter}{k}" for k in range(points.shape[1])]
    rows = [[str(labels[i]), *coords] for i, coords in enumerate(points.tolist())]
    write_text_atomic(path, csv_text(header, rows))


def _write_factor_tables(out, prefix, pf, labels=None):
    samples = range(pf.f.shape[1])
    _write_factor_table(out / f"factors_x_{prefix}.csv", "index", "f", samples, pf.f.T)
    _write_factor_table(
        out / f"factors_y_{prefix}.csv", "label", "g",
        samples if labels is None else labels, pf.g.T,
    )


def run_experiment(config, seed=None, out_dir=None) -> Path:
    """Execute a config document and write its artifacts to disk.

    ``config`` is a path or an already-loaded dict.  Returns the output
    directory.  Raises a :class:`capic.errors.CaError` subclass on any
    failure; the CLI converts those into a nonzero exit code.
    """
    if not isinstance(config, dict):
        config = load_config(config)
    cfg = resolve_config(config, seed=seed, out_dir=out_dir)
    cfg_hash = config_hash(cfg)
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    resolved = dict(cfg)
    resolved["config_hash"] = cfg_hash
    write_json_atomic(out / "config_resolved.json", resolved)

    mode = cfg.get("mode", "train")
    if mode == "svd":
        _run_svd(cfg, out, cfg_hash)
    elif mode == "train":
        _run_train(cfg, out, cfg_hash)
    else:
        raise ContractViolationError(f"unknown mode {mode!r}")
    return out


def _run_svd(cfg, out, cfg_hash):
    dcfg = cfg["dataset"]
    if dcfg.get("source") == "pmf_csv":
        table_arr, x_labels, y_labels = read_pmf_csv(dcfg["path"])
        table = contingency_from_pmf(table_arr, x_labels, y_labels)
    elif dcfg.get("source") == "csv":
        ds = load_csv(dcfg["path"], dcfg["schema"])
        if ds.x_kind != "onehot" or ds.y_kind != "onehot":
            raise ContractViolationError("svd mode needs categorical x and y columns")
        xs = one_hot_decode(ds.x, ds.x_labels)
        ys = one_hot_decode(ds.y, ds.y_labels)
        table = contingency_from_samples(xs, ys)
    else:
        raise ContractViolationError("svd mode supports dataset sources pmf_csv and csv")
    decomp = ca_decompose(table)
    _write_factor_table(out / "factors_x.csv", "label", "f", table.x_labels, decomp.l_factors)
    _write_factor_table(out / "factors_y.csv", "label", "g", table.y_labels, decomp.r_factors)
    rows = zip(range(decomp.d), decomp.sigmas.tolist(), decomp.scores.tolist(),
               decomp.score_ratios.tolist())
    write_text_atomic(
        out / "scores.csv", csv_text(["component", "sigma", "lambda", "score_ratio"], rows)
    )
    for i, j in cfg.get("planes", []):
        plane, svg = fp.export_factor_plane(
            decomp, i, j, x_labels=table.x_labels, y_labels=table.y_labels
        )
        write_text_atomic(out / f"plane_{i}_{j}.svg", svg)
        write_text_atomic(out / f"plane_{i}_{j}.csv", fp.plane_to_csv(plane))


def _diag_doc(pf):
    return {"raw": pf.raw_diagonal.tolist(), "clamped": pf.pic_diagonal.tolist()}


def _run_train(cfg, out, cfg_hash):
    data = build_dataset(cfg["dataset"])
    d = int(cfg["d"])
    f_cfg = _mlp_config(cfg.get("f_net", {}), data.x.shape[0], d)
    g_cfg = _mlp_config(cfg.get("g_net", {}), data.y.shape[0], d)
    t_cfg = _train_config(cfg.get("train", {}))

    x_tr, y_tr = data.train_arrays()
    initial = evaluate_loss(mlp_init(f_cfg), mlp_init(g_cfg), x_tr, y_tr, eps=t_cfg.loss_eps)
    model, history = fit_ca_nn_model(
        data, f_cfg, g_cfg, t_cfg, metadata={"config_hash": cfg_hash, "d": d}
    )
    final = evaluate_loss(model.f_params, model.g_params, x_tr, y_tr, eps=t_cfg.loss_eps)
    save_model(model, out / "model.json")

    train_pf, test_pf = evaluate_model(model, data)
    report = {
        "config_hash": cfg_hash,
        "train": _diag_doc(train_pf),
        "test": _diag_doc(test_pf) if test_pf is not None else None,
        "loss_initial": initial.loss,
        "loss_final": final.loss,
        "kyfan_final": final.kyfan_term,
    }
    write_json_atomic(out / "pic_report.json", report)

    rows = [(e, rec.loss, rec.kyfan_term, rec.g_energy) for e, rec in enumerate(history)]
    write_text_atomic(
        out / "loss_history.csv", csv_text(["epoch", "loss", "kyfan_term", "g_energy"], rows)
    )

    y_cat = data.y_kind == "onehot"
    y_labels = list(data.y_labels) if y_cat else None
    g_cat_points = category_g_points(model, y_labels) if y_cat else None
    _write_factor_tables(out, "train", train_pf, labels=y_labels if y_cat else None)
    if test_pf is not None:
        _write_factor_tables(out, "test", test_pf, labels=y_labels if y_cat else None)

    for i, j in cfg.get("planes", []):
        plane, svg = fp.export_factor_plane(
            train_pf, i, j,
            y_points=g_cat_points if y_cat else None,
            y_labels=y_labels if y_cat else None,
        )
        write_text_atomic(out / f"plane_{i}_{j}.svg", svg)
        write_text_atomic(out / f"plane_{i}_{j}.csv", fp.plane_to_csv(plane))


def run_eval(model_path, config, seed=None, out_dir=None) -> Path:
    """Re-evaluate a saved model on a config's dataset; writes a report."""
    if not isinstance(config, dict):
        config = load_config(config)
    cfg = resolve_config(config, seed=seed, out_dir=out_dir)
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    model = load_model(model_path)
    data = build_dataset(cfg["dataset"])
    train_pf, test_pf = evaluate_model(model, data)
    report = {
        "model": str(model_path),
        "config_hash": config_hash(cfg),
        "train": _diag_doc(train_pf),
        "test": _diag_doc(test_pf) if test_pf is not None else None,
    }
    write_json_atomic(out / "pic_report_eval.json", report)
    return out
