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


def _prepare(config, seed, out_dir):
    """Load ``config`` (a path or a dict), resolve it and make its output directory."""
    if not isinstance(config, dict):
        config = load_config(config)
    cfg = resolve_config(config, seed=seed, out_dir=out_dir)
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _read(block, where, kinds, required=()):
    """Convert each key of ``kinds`` that a config block sets or that is ``required``.

    A missing or unconvertible value raises :class:`ContractViolationError`
    naming ``where`` + key; keys that ``kinds`` does not name are ignored.
    """
    values = {}
    for key in (k for k in kinds if k in block or k in required):
        try:
            values[key] = kinds[key](block[key])
        except KeyError:
            raise ContractViolationError(f"config is missing {where}{key}") from None
        except (TypeError, ValueError) as exc:
            raise ContractViolationError(f"config {where}{key} = {block[key]!r}: {exc}") from None
    return values


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
    sizes = _read(dcfg, "dataset.", {"n_samples": int, "n_test": int}, required=("n_samples",))
    n_train, n_test = sizes["n_samples"], sizes.get("n_test", 0)
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


#: Readers of the keys of an ``f_net``/``g_net`` and of the ``train`` block.
#: MlpConfig and TrainConfig hold the defaults of the keys a block leaves out.
_NET_KEYS = {"hidden": lambda h: [int(w) for w in h], "activation": str, "seed": int,
             "output_clip": lambda c: c}
_TRAIN_KEYS = {"epochs": int, "batch_size": lambda b: b if b == "full" else int(b),
               "optimizer": str, "lr": float, "beta1": float, "beta2": float,
               "adam_eps": float, "loss_eps": float, "seed": int}


def _mlp_config(net_cfg: dict, where: str, in_width: int, d: int) -> MlpConfig:
    values = _read(net_cfg, where, _NET_KEYS)
    hidden = values.pop("hidden", [32, 32])
    if "seed" in values:
        values["init_seed"] = values.pop("seed")
    return MlpConfig(layer_widths=(in_width, *hidden, d), **values)


def _train_config(tcfg: dict) -> TrainConfig:
    return TrainConfig(**_read(tcfg, "train.", _TRAIN_KEYS, required=("epochs",)))


def evaluate_model(model: CaNnModel, data: PairedDataset):
    """Apply the stored whitening to train and (if present) test splits."""

    def principal(x, y):
        return apply_whitening(
            model.transform, forward(model.f_params, x)[0], forward(model.g_params, y)[0]
        )

    test = data.test_arrays()
    return principal(*data.train_arrays()), None if test is None else principal(*test)


def _category_points(model: CaNnModel, data: PairedDataset):
    """A plane's y points and labels: one per category of a one-hot y, else ``None``s."""
    if data.y_kind != "onehot":
        return None, None
    return model.principal_g(np.eye(len(data.y_labels))), list(data.y_labels)


def _write_planes(out, source, planes, **export_kw):
    """Export each ``(i, j)`` of ``planes`` and write ``plane_{i}_{j}.svg`` and ``.csv``."""
    for i, j in planes:
        plane, svg = fp.export_factor_plane(source, i, j, **export_kw)
        write_text_atomic(out / f"plane_{i}_{j}.svg", svg)
        write_text_atomic(out / f"plane_{i}_{j}.csv", fp.plane_to_csv(plane))


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
    cfg, out = _prepare(config, seed, out_dir)
    cfg_hash = config_hash(cfg)
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
    _write_planes(
        out, decomp, cfg.get("planes", []), x_labels=table.x_labels, y_labels=table.y_labels
    )


def _diag_doc(pf):
    return {"raw": pf.raw_diagonal.tolist(), "clamped": pf.pic_diagonal.tolist()}


def _run_train(cfg, out, cfg_hash):
    data = build_dataset(cfg["dataset"])
    d = _read(cfg, "", {"d": int}, required=("d",))["d"]
    f_cfg = _mlp_config(cfg.get("f_net", {}), "f_net.", data.x.shape[0], d)
    g_cfg = _mlp_config(cfg.get("g_net", {}), "g_net.", data.y.shape[0], d)
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

    y_points, y_labels = _category_points(model, data)
    _write_factor_tables(out, "train", train_pf, labels=y_labels)
    if test_pf is not None:
        _write_factor_tables(out, "test", test_pf, labels=y_labels)
    _write_planes(out, train_pf, cfg.get("planes", []), y_points=y_points, y_labels=y_labels)


def _evaluate_saved(model_path, config, seed, out_dir):
    """``(cfg, out, model, data, train_pf, test_pf)`` of a saved model on a config's dataset."""
    cfg, out = _prepare(config, seed, out_dir)
    model = load_model(model_path)
    data = build_dataset(cfg["dataset"])
    return (cfg, out, model, data, *evaluate_model(model, data))


def run_eval(model_path, config, seed=None, out_dir=None) -> Path:
    """Re-evaluate a saved model on a config's dataset; writes a report."""
    cfg, out, _, _, train_pf, test_pf = _evaluate_saved(model_path, config, seed, out_dir)
    report = {
        "model": str(model_path),
        "config_hash": config_hash(cfg),
        "train": _diag_doc(train_pf),
        "test": _diag_doc(test_pf) if test_pf is not None else None,
    }
    write_json_atomic(out / "pic_report_eval.json", report)
    return out


def run_plane(model_path, config, i, j, seed=None, out_dir=None) -> Path:
    """Write the ``(i, j)`` factor plane of a saved model on a config's training split."""
    _, out, model, data, train_pf, _ = _evaluate_saved(model_path, config, seed, out_dir)
    y_points, y_labels = _category_points(model, data)
    _write_planes(out, train_pf, [(i, j)], y_points=y_points, y_labels=y_labels)
    return out
