"""Paired datasets: in-memory representation, CSV ingestion, encoding.

A :class:`PairedDataset` stores the two views as feature-by-sample
matrices.  Categorical columns are one-hot encoded with lexicographic
label order so every run of the same input produces the same layout.

Split-major layout: a dataset holds each sample once, the training
columns first, then the test columns, each in source row order.  The
split is one integer, ``n_train``, and the split arrays are views.  The
memory layout decides bits (numpy sums pairwise only along a contiguous
axis, which sets the standardization statistics, and OpenBLAS can give
a product's last columns other bits in the other layout), so
:func:`load_csv` gives a continuous side the layout of its split arrays
when they were gathered from the file-order matrix: sample-contiguous
(F-ordered) with a split, feature-contiguous (C-ordered) without.

Repeated columns: CA depends on the data only through the empirical
joint distribution of (X, Y), so a discrete split matters only through
its distinct x and y columns and their counts (32 of each in 15000
BSC-5 samples).  A dataset finds the :class:`ColumnCodes` of each side
of each split on first use, at most one sort per side
(:func:`column_codes`), and keeps them; a side whose columns are all
distinct gets None.  With the codes:

* a full-batch training step (:func:`capic.neural.train_ca_nn`) and
  the initial loss (:func:`capic.neural.evaluate_loss`) run each net
  once per distinct column and take the loss over the distinct (x, y)
  pairs, each pair's outputs scaled by its count;
* the float64 passes (:func:`capic.neural.encode`, for the trained
  and the folded nets in :func:`capic.model.fit_ca_nn_model` and in
  :func:`capic.experiment.evaluate_model`) run each net once per
  distinct column, in fixed blocks of columns, and gather the outputs
  back to the samples;
* the factor tables and planes of
  :func:`capic.experiment.run_experiment` read the split's codes from
  the dataset and write such a side once per code: its count in the
  split and its values at the code's first column.  A one-hot side is
  written once per label instead, codes or not.

The codes compare float64 bytes.  Columns equal in float64 are equal in
float32 too, so one set of codes serves the float32 training step and
the float64 passes.  Two columns that differ in float64 but collide in
float32 keep two codes, which costs a step a column, not exactness (as
do 0.0 and -0.0, whose bytes differ).  Nothing in capic changes a
dataset once it is built (a synthetic source's ``n_train`` is set with
:func:`dataclasses.replace`), so the codes found on first use stay
those of its arrays.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractViolationError,
    CsvParseError,
    EmptyDatasetError,
)
from .fileio import csv_records, open_input, write_csv_atomic
from .linalg import distinct_rows

ROLES = ("x-continuous", "x-categorical", "y-continuous", "y-categorical", "ignore")


class ColumnCodes(NamedTuple):
    """The distinct columns of one side of a split.

    Column ``k`` of the side has code ``inverse[k]``, and ``first[c]`` is
    the first column with code ``c``.
    """

    first: np.ndarray
    inverse: np.ndarray


def column_codes(a) -> ColumnCodes | None:
    """The codes of the byte-distinct float64 columns of ``a``; None when none repeats.

    When the values of the first row are all distinct no column can
    repeat, and that one 1-D sort is all it costs (a continuous side).
    Otherwise one sort of the columns (:func:`capic.linalg.distinct_rows`).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape[0] and np.unique(a[0]).size == a.shape[1]:
        return None
    first, inverse = distinct_rows(a.T)
    return ColumnCodes(first, inverse) if first.size < inverse.size else None


@dataclass
class PairedDataset:
    """Paired samples of two variables, columns are samples.

    ``x_kind`` / ``y_kind`` are ``"continuous"`` or ``"onehot"`` (each
    column one 1 among 0s, its category's row); for one-hot sides the
    category labels are kept in ``x_labels`` / ``y_labels`` in row
    order.  The first ``n_train`` columns train and the rest are held
    out; None means no split, and every column trains.  ``provenance``
    records how the data was made (source descriptor, seeds, auxiliary
    arrays).
    """

    x: np.ndarray
    y: np.ndarray
    x_kind: str = "continuous"
    y_kind: str = "continuous"
    x_labels: tuple | None = None
    y_labels: tuple | None = None
    n_train: int | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.ndim != 2 or self.y.ndim != 2:
            raise ContractViolationError("dataset views must be 2-D matrices")
        if self.x.shape[1] != self.y.shape[1]:
            raise ContractViolationError(
                f"x has {self.x.shape[1]} samples but y has {self.y.shape[1]}"
            )
        for kind, mat, labels, name in (
            (self.x_kind, self.x, self.x_labels, "x"),
            (self.y_kind, self.y, self.y_labels, "y"),
        ):
            if kind not in ("continuous", "onehot"):
                raise ContractViolationError(f"unknown kind {kind!r} for {name}")
            if kind == "onehot":
                if labels is None or len(labels) != mat.shape[0]:
                    raise ContractViolationError(f"{name} one-hot block needs labels per row")
                if not (((mat == 0) | (mat == 1)).all() and (mat.sum(axis=0) == 1).all()):
                    raise ContractViolationError(f"{name} one-hot columns must be one 1 and 0s")
        if self.n_train is not None and not 0 <= self.n_train <= self.n:
            raise ContractViolationError(f"n_train {self.n_train} not in [0, {self.n}]")

    @property
    def n(self) -> int:
        return self.x.shape[1]

    def train_arrays(self):
        """The training split's ``(x, y)``: views of the first ``n_train`` columns, or all."""
        return self.x[:, :self.n_train], self.y[:, :self.n_train]

    def test_arrays(self):
        """The test split's ``(x, y)``: views of the columns after ``n_train``, or None."""
        if self.n_train in (None, self.n):
            return None
        return self.x[:, self.n_train:], self.y[:, self.n_train:]

    @cached_property
    def train_codes(self) -> tuple:
        """The ``(x, y)`` :class:`ColumnCodes` of the training split, found on first use."""
        return tuple(map(column_codes, self.train_arrays()))

    @cached_property
    def test_codes(self) -> tuple:
        """The ``(x, y)`` :class:`ColumnCodes` of the test split; Nones without one."""
        arrays = self.test_arrays()
        return (None, None) if arrays is None else tuple(map(column_codes, arrays))


def one_hot_encode(values, labels=None):
    """Encode a sequence of category values as a labels x n 0/1 matrix."""
    values = list(values)
    if labels is None:
        labels = tuple(sorted(set(values)))
    index = {l: i for i, l in enumerate(labels)}
    rows = np.fromiter(map(index.get, values, repeat(-1)), np.intp, len(values))
    missing = rows < 0
    if missing.any():
        raise ContractViolationError(f"value {values[int(missing.argmax())]!r} not in label set")
    mat = np.zeros((len(labels), len(values)))
    mat[rows, np.arange(len(values))] = 1.0
    return mat, tuple(labels)


def apply_standardization(stats, mat):
    """Shift/scale a feature matrix with stored per-row statistics."""
    mean = np.asarray(stats["mean"], dtype=np.float64)
    std = np.asarray(stats["std"], dtype=np.float64)
    mat = np.asarray(mat, dtype=np.float64)
    if mat.shape[0] != mean.size:
        raise ContractViolationError(
            f"feature count {mat.shape[0]} does not match stored statistics ({mean.size})"
        )
    out = mat - mean[:, None]
    out /= std[:, None]
    return out


def make_split(n, test_fraction, seed):
    """Deterministic shuffled ``(train_rows, test_rows)`` of ``range(n)``, each sorted.

    A split that would leave no training row raises
    :class:`EmptyDatasetError`.
    """
    if not 0 <= test_fraction < 1:
        raise ContractViolationError("test_fraction must be in [0, 1)")
    n_test = int(round(n * test_fraction))
    if n_test == n:
        raise EmptyDatasetError(
            f"test_fraction {test_fraction} of {n} rows leaves no training rows"
        )
    order = np.random.default_rng(seed).permutation(n)
    return np.sort(order[n_test:]), np.sort(order[:n_test])


def _side_columns(header, schema, prefix):
    """The header columns of one side and the side's kind."""
    cont = [c for c in header if schema[c] == f"{prefix}-continuous"]
    cat = [c for c in header if schema[c] == f"{prefix}-categorical"]
    if cont and cat:
        raise ContractViolationError(f"{prefix} side mixes continuous and categorical columns")
    if not cont and not cat:
        raise ContractViolationError(f"schema assigns no columns to the {prefix} side")
    if len(cat) > 1:
        # stacked one-hot blocks would sum to len(cat) per sample
        raise ContractViolationError(
            f"{prefix} side has several categorical columns {cat}; at most one is supported"
        )
    return (cont, "continuous") if cont else (cat, "onehot")


def load_csv(path, schema, standardize=False, test_fraction=0.0, split_seed=0):
    """Load a paired dataset from a delimited text file with a header.

    ``schema`` maps every header name to one of ``x-continuous``,
    ``x-categorical``, ``y-continuous``, ``y-categorical`` or
    ``ignore``.  Each side is either continuous columns or a single
    categorical column, one-hot encoded in lexicographic label order.
    The rows of a ``test_fraction`` split are laid out split-major.
    With ``standardize=True`` each continuous row is shifted/scaled to
    zero mean and unit variance using statistics of the training split
    only.  Errors in a row name the physical line the row starts on (a
    quoted cell may hold newlines).
    """
    for col, role in schema.items():
        if role not in ROLES:
            raise ContractViolationError(f"unknown role {role!r} for column {col!r}")
    with open_input(path, newline="") as fh:
        records = csv_records(fh, path)
        _, header = next(records, (1, None))
        if header is None:
            raise CsvParseError(f"{path}: file is empty", line=1)
        repeated = sorted({c for c in header if header.count(c) > 1})
        if repeated:
            raise CsvParseError(f"{path}: header repeats columns {repeated}", line=1)
        missing = [c for c in schema if c not in header]
        if missing:
            raise CsvParseError(f"{path}: schema columns missing from header: {missing}")
        unknown = [c for c in header if c not in schema]
        if unknown:
            raise CsvParseError(f"{path}: header columns not covered by schema: {unknown}")
        sides = {p: _side_columns(header, schema, p) for p in "xy"}
        numeric = [i for i, c in enumerate(header) if schema[c].endswith("continuous")]
        texts = {p: (header.index(cols[0]), []) for p, (cols, kind) in sides.items()
                 if kind == "onehot"}  # a categorical side's cells
        values = array("d")  # the continuous cells, row by row
        n_rows = 0
        for line, row in records:
            if len(row) != len(header):
                raise CsvParseError(
                    f"{path}: row has {len(row)} fields, header has {len(header)}", line=line
                )
            try:
                values.extend(map(float, [row[i] for i in numeric]))
            except ValueError:
                for i in numeric:  # name the first cell that float rejects
                    try:
                        float(row[i])
                    except ValueError:
                        raise CsvParseError(f"{path}: non-numeric value {row[i]!r} in "
                                            f"continuous column {header[i]!r}", line=line) from None
            for i, cells in texts.values():
                cells.append(row[i])
            n_rows += 1
    if n_rows == 0:
        raise EmptyDatasetError(f"{path}: no data rows")
    n_train = None
    order = np.arange(n_rows)  # the file's rows in the dataset's column order
    if test_fraction > 0:
        train_rows, test_rows = make_split(n_rows, test_fraction, split_seed)
        n_train, order = train_rows.size, np.concatenate([train_rows, test_rows])
    buf = np.frombuffer(values).reshape(n_rows, len(numeric))
    gathered = {p: buf[np.ix_(order, [header[i] in cols for i in numeric])].T  # sample-contiguous
                for p, (cols, kind) in sides.items() if kind == "continuous"}
    del buf, values  # the parse buffer, freed before any side is standardized or encoded
    built, stats = {}, {}
    for p, (cols, kind) in sides.items():
        if kind == "onehot":
            cells = texts[p][1]
            built[p] = one_hot_encode(cells if n_train is None else
                                      [cells[i] for i in order.tolist()])
            continue
        mat = gathered.pop(p)
        if standardize:
            train = mat[:, :n_train]
            std = train.std(axis=1)
            stats[p] = {"mean": train.mean(axis=1).tolist(),
                        "std": np.where(std > 0, std, 1.0).tolist()}
            del train  # a view: it would keep the unstandardized gather alive
            mat = apply_standardization(stats[p], mat)
        built[p] = (np.ascontiguousarray(mat) if n_train is None else mat), None
    provenance = {"source": "csv", "path": str(path), "x_columns": sides["x"][0],
                  "y_columns": sides["y"][0], "standardize": bool(standardize),
                  "test_fraction": test_fraction, "split_seed": split_seed}
    if standardize:
        provenance["standardization"] = stats
    (x, x_labels), (y, y_labels) = built["x"], built["y"]
    return PairedDataset(
        x=x, y=y, x_kind=sides["x"][1], y_kind=sides["y"][1],
        x_labels=x_labels, y_labels=y_labels, n_train=n_train, provenance=provenance,
    )


WINE_ATTRIBUTES = (
    "fixed acidity", "volatile acidity", "citric acid", "residual sugar",
    "chlorides", "free sulfur dioxide", "total sulfur dioxide", "density",
    "pH", "sulphates", "alcohol",
)

WINE_SCHEMA = {name: "x-continuous" for name in WINE_ATTRIBUTES}
WINE_SCHEMA["quality"] = "y-categorical"


def synthetic_wine_csv(path, n_samples=4898, seed=0):
    """Write a wine-quality-shaped CSV with a known dependence structure.

    Stand-in for the UCI wine quality file (same header: 11 continuous
    attributes plus a 6-level ``quality`` column).  Samples fall into
    three well-separated attribute clusters (poor, medium, high); the
    quality grade is drawn within the cluster, so exactly two component
    correlations are close to one and the rest are near zero.  Useful
    where the original file cannot be shipped; any real CSV with the
    same header works interchangeably.
    """
    rng = np.random.default_rng(seed)
    group = rng.integers(0, 3, size=n_samples)  # 0 poor, 1 medium, 2 high
    # Cluster centers for (volatile acidity, citric acid, sulphates, alcohol);
    # separation is large against unit-ish noise so the group is recoverable.
    centers = {
        0: {"volatile acidity": 0.9, "citric acid": 0.1, "sulphates": 0.4, "alcohol": 9.0},
        1: {"volatile acidity": 0.5, "citric acid": 0.3, "sulphates": 0.6, "alcohol": 10.5},
        2: {"volatile acidity": 0.2, "citric acid": 0.5, "sulphates": 0.9, "alcohol": 12.5},
    }
    base = {
        "fixed acidity": (8.0, 1.0), "residual sugar": (2.5, 0.8),
        "chlorides": (0.08, 0.02), "free sulfur dioxide": (15.0, 6.0),
        "total sulfur dioxide": (45.0, 20.0), "density": (0.996, 0.002),
        "pH": (3.3, 0.15),
    }
    spread = {"volatile acidity": 0.05, "citric acid": 0.05, "sulphates": 0.05, "alcohol": 0.3}
    rows = np.zeros((n_samples, len(WINE_ATTRIBUTES)))
    for j, name in enumerate(WINE_ATTRIBUTES):
        if name in base:
            mu, sd = base[name]
            rows[:, j] = rng.normal(mu, sd, size=n_samples)
        else:
            mu = np.array([centers[g][name] for g in group])
            rows[:, j] = mu + rng.normal(0.0, spread[name], size=n_samples)
    grades_by_group = {0: (2, 3, 4), 1: (5,), 2: (6, 7)}
    quality = np.array(
        [grades_by_group[g][rng.integers(0, len(grades_by_group[g]))] for g in group]
    )
    write_csv_atomic(path, [*WINE_ATTRIBUTES, "quality"], zip(rows, quality))
    return path
