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
test_fraction / split_seed; svd mode counts the training split) and
``pmf_csv`` (exact joint table, svd mode only).  A ``--seed S`` override rewrites every seed in the
document deterministically (dataset S, f_net S+1, g_net S+2, train
S+3).  Artifacts carry the hash of the resolved config and contain no
timestamps, so a rerun with the same numpy/BLAS build and the same BLAS
thread count reproduces them byte for byte (see :mod:`capic.fileio`).

Repeated columns (one net pass per distinct column, one artifact row
per distinct value): see :mod:`capic.datasets`.
"""

from __future__ import annotations

import dataclasses
import json
import os
from array import array
from pathlib import Path

import numpy as np

from . import factor_plane as fp
from .classical import ContingencyTable, ca_decompose, check_exact_cells, contingency_from_pmf
from .datasets import PairedDataset, load_csv
from .errors import ContractViolationError, CsvParseError
from .fileio import (
    csv_records, csv_text, open_input, read_json_object, sha256_of_json,
    write_json_atomic, write_text_atomic,
)
from .model import CaNnModel, fit_ca_nn_model, load_model, save_model
from .neural import MlpConfig, TrainConfig, encode, evaluate_loss, forward, mlp_init
from .oracles import (
    BscSpec,
    GaussianPairSpec,
    bsc_sample,
    gaussian_pair_sample,
    multimodal_gaussian_sample,
)
from .whitening import principal_functions

CONFIG_VERSION = 1
OUTPUT_DIR_ENV = "CA_OUTPUT_DIR"


def load_config(path) -> dict:
    cfg = read_json_object(path)
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
        _read(cfg, "", _TOP_KEYS)  # a block that is not an object cannot take a seed
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


def _read(block, where, kinds, required=(), closed=False):
    """Convert each key of ``kinds`` that a config block sets or that is ``required``.

    A missing or unconvertible value raises :class:`ContractViolationError`
    naming ``where`` + key.  A key that ``kinds`` does not name is ignored,
    or with ``closed`` raises the same error.
    """
    for key in block if closed else ():
        if key not in kinds:
            raise ContractViolationError(f"config sets unknown key {where}{key}")
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


def _object(value):
    """A config block: a JSON object."""
    if not isinstance(value, dict):
        raise TypeError("not an object")
    return value


def _planes(value):
    """Plane axes: a list of ``[i, j]`` pairs of distinct non-negative ints."""
    planes = [tuple(map(int, pair)) for pair in value]
    if not all(len(axes) == 2 and axes[0] != axes[1] and min(axes) >= 0 for axes in planes):
        raise ValueError("each plane is two distinct non-negative axes")
    return planes


#: Readers of the top-level keys of a config.
_TOP_KEYS = {"d": int, "dataset": _object, "f_net": _object, "g_net": _object, "train": _object,
             "planes": _planes}
#: Per synthetic source: the readers of its own keys, the ones it
#: requires, and its sampler, called with the values read, the total
#: sample count and the seed.
_SAMPLERS = {
    "bsc": ({"n_bits": int, "delta": float, "p": float}, ("n_bits", "delta"),
            lambda v, n, seed: bsc_sample(BscSpec(**v), n, seed=seed)),
    "gaussian": ({"sigma1": float, "sigma2": float}, ("sigma1", "sigma2"),
                 lambda v, n, seed: gaussian_pair_sample(
                     GaussianPairSpec(**v, n_samples=n, seed=seed))),
    "multimodal": ({"mu0": list, "mu1": list, "cov": list, "p_mode": float}, ("mu0", "mu1", "cov"),
                   lambda v, n, seed: multimodal_gaussian_sample(
                       **{"p_mode": 0.5, **v}, n=n, seed=seed)),
}
_CSV_KEYS = {"path": str, "schema": _object, "standardize": bool, "test_fraction": float,
             "split_seed": int, "seed": int}


def build_dataset(dcfg: dict) -> PairedDataset:
    """Make the dataset a config's ``dataset`` block describes.

    Synthetic sources draw ``n_samples + n_test`` samples; with
    ``n_test > 0`` the first ``n_samples`` form the train split and the
    rest the test split.
    """
    source = dcfg.get("source")
    if source == "csv":
        values = _read(dcfg, "dataset.", _CSV_KEYS, required=("path", "schema"))
        seed = values.pop("seed", 0)
        return load_csv(**{"split_seed": seed, **values})
    if source not in _SAMPLERS:
        raise ContractViolationError(f"unknown dataset source {source!r}")
    kinds, required, draw = _SAMPLERS[source]
    values = _read(
        dcfg, "dataset.", {"n_samples": int, "n_test": int, "seed": int, **kinds},
        required=("n_samples", *required),
    )
    n_train, n_test, seed = (values.pop(key, 0) for key in ("n_samples", "n_test", "seed"))
    ds = draw(values, n_train + n_test, seed)
    return dataclasses.replace(ds, n_train=n_train) if n_test > 0 else ds


def read_pmf_csv(path):
    """Joint-table CSV: header row carries y labels, first column x labels, none repeated.

    Each row's cells are parsed with ``float()`` into one growing float64
    buffer, which the returned table views: the file's cells are never
    all held as Python objects, and the table is never copied.  The row
    that takes the table over the exact-path cap (``MAX_EXACT_CELLS``)
    raises :class:`CapacityError` naming its line, so such a file is not
    read whole.
    """
    with open_input(path, newline="") as fh:
        records = csv_records(fh, path)
        _, header = next(records, (1, None))
        if header is None:
            raise CsvParseError(f"{path}: file is empty", line=1)
        y_labels = header[1:]
        if not y_labels:
            raise CsvParseError(f"{path}: header has no y labels", line=1)
        if len(set(y_labels)) < len(y_labels):
            repeated = sorted({c for c in y_labels if y_labels.count(c) > 1})
            raise CsvParseError(f"{path}: header repeats y labels {repeated}", line=1)
        width = len(y_labels)
        x_lines, values = {}, array("d")  # the line of each x label in row order; the cells
        for line, row in records:
            if len(row) != width + 1:
                raise CsvParseError(f"{path}: row width mismatch", line=line)
            if row[0] in x_lines:
                raise CsvParseError(
                    f"{path}: x label {row[0]!r} repeats line {x_lines[row[0]]}", line=line)
            x_lines[row[0]] = line
            check_exact_cells(len(values) + width, f"{path}: the table through line {line}")
            try:
                values.fromlist(list(map(float, row[1:])))
            except ValueError:
                raise CsvParseError(f"{path}: non-numeric table entry", line=line) from None
    if not x_lines:
        raise CsvParseError(f"{path}: no table rows", line=1)
    return np.frombuffer(values).reshape(-1, width), tuple(x_lines), tuple(y_labels)


#: Readers of the keys of an ``f_net``/``g_net`` and of the ``train`` block.
#: MlpConfig and TrainConfig hold the defaults of the keys a block leaves out.
_NET_KEYS = {"hidden": lambda h: [int(w) for w in h], "activation": str, "seed": int}
_TRAIN_KEYS = {"epochs": int, "batch_size": lambda b: b if b == "full" else int(b),
               "optimizer": str, "lr": float, "beta1": float, "beta2": float,
               "adam_eps": float, "loss_eps": float, "seed": int}


def _mlp_config(net_cfg: dict, where: str, in_width: int, d: int) -> MlpConfig:
    values = _read(net_cfg, where, _NET_KEYS, closed=True)
    hidden = values.pop("hidden", [32, 32])
    if "seed" in values:
        values["init_seed"] = values.pop("seed")
    return MlpConfig(layer_widths=(in_width, *hidden, d), **values)


def _train_config(tcfg: dict) -> TrainConfig:
    return TrainConfig(**_read(tcfg, "train.", _TRAIN_KEYS, required=("epochs",), closed=True))


def evaluate_model(model: CaNnModel, data: PairedDataset):
    """The nets' outputs on the train and (if any, else None) test split, with diagonals.

    Each net runs once per distinct column of its side (repeated columns:
    see :mod:`capic.datasets`).
    """

    def principal(arrays, codes):
        if arrays is None:
            return None
        x_codes, y_codes = codes
        return principal_functions(
            encode(model.f_params, arrays[0], x_codes), encode(model.g_params, arrays[1], y_codes)
        )

    return (principal(data.train_arrays(), data.train_codes),
            principal(data.test_arrays(), data.test_codes))


def _side_values(params, rows, kind, labels, codes, arrays):
    """``(labels, counts, points)``: one side of a split as a point set, points k x d.

    ``rows`` (d x n) are the side's principal-function values and
    ``arrays`` its columns.  A one-hot side gives one point per label, in
    label order: the net's output on the label's column (a count may be
    0).  Another coded side gives one point per code, ``rows[:, codes.first]``,
    labelled by its column's values.  Any other side gives a point per
    sample, ``(None, None, rows.T)``: numbered, not counted.
    """
    if kind == "onehot":
        counts = np.bincount(arrays.argmax(axis=0), minlength=len(labels))
        return list(labels), counts, forward(params, np.eye(len(labels)))[0].T
    if codes is None:
        return None, None, rows.T
    labels = [" ".join(map(repr, column)) for column in arrays[:, codes.first].T.tolist()]
    return labels, np.bincount(codes.inverse), rows[:, codes.first].T


def _split_values(model: CaNnModel, data: PairedDataset, pf, test=False):
    """The x and y :func:`_side_values` of the training split, or with ``test`` of the test split.

    ``pf`` are that split's principal functions.
    """
    arrays, codes = (data.test_arrays(), data.test_codes) if test else (
        data.train_arrays(), data.train_codes)
    return (
        _side_values(model.f_params, pf.f, data.x_kind, data.x_labels, codes[0], arrays[0]),
        _side_values(model.g_params, pf.g, data.y_kind, data.y_labels, codes[1], arrays[1]),
    )


def _check_planes(planes, d):
    """Reject a config plane with an axis of ``d`` or more, before any work is written."""
    wide = [axis for axes in planes for axis in axes if axis >= d]
    if wide:
        raise ContractViolationError(f"config planes: axis {wide[0]} out of range for d={d}")


def _write_planes(out, planes, x_values, y_values, weights, ratios):
    """Export each ``(i, j)`` of ``planes`` and write ``plane_{i}_{j}.svg`` and ``.csv``.

    The sides are :func:`_side_values` (points k x d); ``weights`` and
    ``ratios`` go to :func:`capic.factor_plane.export_factor_plane`.
    """
    sides = [(labels, points) for labels, _, points in (x_values, y_values)]
    for i, j in planes:
        plane, svg = fp.export_factor_plane(i, j, *sides, weights, ratios)
        write_text_atomic(out / f"plane_{i}_{j}.svg", svg)
        write_text_atomic(out / f"plane_{i}_{j}.csv", fp.plane_to_csv(plane))


def _write_model_planes(out, planes, train_pf, train_values):
    """:func:`_write_planes` of a model's training split, weighted by its component correlations."""
    diag = train_pf.pic_diagonal
    _write_planes(out, planes, *train_values, diag, fp.inertia_shares(diag))


def _write_factor_table(path, names, letter, *columns):
    """One row per point: its cells in ``columns`` (headed ``names``), then its coordinates.

    The last of ``columns`` is the k x d matrix of the points, headed
    ``{letter}0, {letter}1, ...``.  The columns must have the same length.
    """
    header = [*names, *(f"{letter}{k}" for k in range(columns[-1].shape[1]))]
    write_text_atomic(path, csv_text(header, zip(*columns, strict=True)))


def _write_factor_tables(out, prefix, values):
    """``factors_{x,y}_{prefix}.csv``: one row per point of each side's :func:`_side_values`.

    A counted side's rows carry their label and count; a per-sample
    side's their number, headed ``index`` on x and ``label`` on y.
    """
    for side, first, letter, (labels, counts, points) in zip("xy", ("index", "label"), "fg",
                                                             values):
        path = out / f"factors_{side}_{prefix}.csv"
        if counts is None:
            _write_factor_table(path, [first], letter, range(len(points)), points)
        else:
            _write_factor_table(path, ["label", "count"], letter, labels, counts, points)


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


def _svd_table(dcfg) -> ContingencyTable:
    """The contingency table that svd mode decomposes, from a ``dataset`` block."""
    if dcfg.get("source") == "pmf_csv":
        path = _read(dcfg, "dataset.", {"path": str}, required=("path",))["path"]
        return contingency_from_pmf(*read_pmf_csv(path))
    if dcfg.get("source") != "csv":
        raise ContractViolationError("svd mode supports dataset sources pmf_csv and csv")
    ds = build_dataset(dcfg)
    if ds.x_kind != "onehot" or ds.y_kind != "onehot":
        raise ContractViolationError("svd mode needs categorical x and y columns")
    check_exact_cells(len(ds.x_labels) * len(ds.y_labels),
                      f"{ds.provenance['path']}: the x-by-y label table")
    x, y = ds.train_arrays()
    for side, labels, rows in (("x", ds.x_labels, x), ("y", ds.y_labels, y)):
        unseen = [label for label, seen in zip(labels, rows.any(axis=1)) if not seen]
        if unseen:
            raise ContractViolationError(
                f"{side} labels {unseen} occur only in held-out rows "
                f"(test_fraction {ds.provenance['test_fraction']}, "
                f"split_seed {ds.provenance['split_seed']})"
            )
    counts = x @ y.T  # exact integer counts of the training split's (x, y) label pairs
    return ContingencyTable(counts / counts.sum(), ds.x_labels, ds.y_labels)


def _run_svd(cfg, out, cfg_hash):
    """Decompose the config's table; write its factor tables, scores and planes.

    Only the labels and the decomposition are kept past :func:`ca_decompose`.
    """
    blocks = _read(cfg, "", _TOP_KEYS, required=("dataset",))
    table = _svd_table(blocks["dataset"])
    planes = blocks.get("planes", [])
    _check_planes(planes, min(table.table.shape) - 1)
    decomp = ca_decompose(table)
    x_labels, y_labels = table.x_labels, table.y_labels
    del table  # the normalized table, not kept while the factor tables are formatted
    _write_factor_table(out / "factors_x.csv", ["label"], "f", x_labels, decomp.l_factors)
    _write_factor_table(out / "factors_y.csv", ["label"], "g", y_labels, decomp.r_factors)
    rows = zip(range(decomp.d), decomp.sigmas.tolist(), decomp.scores.tolist(),
               decomp.score_ratios.tolist())
    write_text_atomic(
        out / "scores.csv", csv_text(["component", "sigma", "lambda", "score_ratio"], rows)
    )
    _write_planes(out, planes, (x_labels, None, decomp.l_factors),
                  (y_labels, None, decomp.r_factors), decomp.sigmas, decomp.score_ratios)


def _pic_report(cfg_hash, train_pf, test_pf, **entries):
    """A ``pic_report*.json`` document: the config hash, each split's diagonals, ``entries``.

    A split's diagonals are its raw and clamped ``PrincipalFunctions``
    diagonals, or None for a missing test split.
    """

    def diagonals(pf):
        if pf is None:
            return None
        return {"raw": pf.raw_diagonal.tolist(), "clamped": pf.pic_diagonal.tolist()}

    return {"config_hash": cfg_hash, "train": diagonals(train_pf), "test": diagonals(test_pf),
            **entries}


def _run_train(cfg, out, cfg_hash):
    blocks = _read(cfg, "", _TOP_KEYS, required=("d", "dataset"))
    d, planes = blocks["d"], blocks.get("planes", [])
    _check_planes(planes, d)
    data = build_dataset(blocks["dataset"])
    f_cfg = _mlp_config(blocks.get("f_net", {}), "f_net.", data.x.shape[0], d)
    g_cfg = _mlp_config(blocks.get("g_net", {}), "g_net.", data.y.shape[0], d)
    t_cfg = _train_config(blocks.get("train", {}))

    initial = evaluate_loss(mlp_init(f_cfg), mlp_init(g_cfg), data, eps=t_cfg.loss_eps)
    model, history = fit_ca_nn_model(
        data, f_cfg, g_cfg, t_cfg, metadata={"config_hash": cfg_hash, "d": d}
    )
    save_model(model, out / "model.json")

    train_pf, test_pf = evaluate_model(model, data)
    report = _pic_report(cfg_hash, train_pf, test_pf, loss_initial=initial.loss,
                         loss_final=model.loss_final, kyfan_final=model.kyfan_final)
    write_json_atomic(out / "pic_report.json", report)

    rows = [(e, rec.loss, rec.kyfan_term, rec.g_energy) for e, rec in enumerate(history)]
    write_text_atomic(
        out / "loss_history.csv", csv_text(["epoch", "loss", "kyfan_term", "g_energy"], rows)
    )

    train_values = _split_values(model, data, train_pf)
    _write_factor_tables(out, "train", train_values)
    if test_pf is not None:
        _write_factor_tables(out, "test", _split_values(model, data, test_pf, test=True))
    _write_model_planes(out, planes, train_pf, train_values)


def _evaluate_saved(model_path, config, seed, out_dir):
    """``(cfg, out, model, data, train_pf, test_pf)`` of a saved model on a config's dataset."""
    cfg, out = _prepare(config, seed, out_dir)
    model = load_model(model_path)
    data = build_dataset(_read(cfg, "", _TOP_KEYS, required=("dataset",))["dataset"])
    for side in "xy":  # the kind and labels of each side the model's metadata records
        labels = getattr(data, f"{side}_labels")
        ours = (getattr(data, f"{side}_kind"), None if labels is None else list(map(str, labels)))
        trained = tuple(model.metadata.get(f"{side}_{key}", value)
                        for key, value in zip(("kind", "labels"), ours))
        if ours != trained:
            raise ContractViolationError(f"{side} side: the dataset has {ours[0]} labels {ours[1]},"
                                         f" the model was trained on {trained[0]} {trained[1]}")
    return (cfg, out, model, data, *evaluate_model(model, data))


def run_eval(model_path, config, seed=None, out_dir=None) -> Path:
    """Re-evaluate a saved model on a config's dataset; writes a report."""
    cfg, out, _, _, train_pf, test_pf = _evaluate_saved(model_path, config, seed, out_dir)
    report = _pic_report(config_hash(cfg), train_pf, test_pf, model=str(model_path))
    write_json_atomic(out / "pic_report_eval.json", report)
    return out


def run_plane(model_path, config, i, j, seed=None, out_dir=None) -> Path:
    """Write the ``(i, j)`` factor plane of a saved model on a config's training split."""
    _, out, model, data, train_pf, _ = _evaluate_saved(model_path, config, seed, out_dir)
    _write_model_planes(out, [(i, j)], train_pf, _split_values(model, data, train_pf))
    return out
