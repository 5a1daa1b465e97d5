"""Contingency-table correspondence analysis.

Builds the normalized co-occurrence table of two categorical variables,
forms the centered ratio matrix

    Q = D_x^{-1/2} (P - p_x p_y^T) D_y^{-1/2},

and extracts orthogonal factors and factor scores from its SVD.  Since
the factors diagonalize the conditional-expectation operator between the
two variables, the singular-value spectrum of Q is the exact
principal-inertia spectrum of the joint distribution; on small finite
alphabets this module therefore doubles as the brute-force oracle the
neural estimator is tested against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ContractViolationError
from .linalg import as_matrix, svd

#: Largest supported joint alphabet for the exact oracle path.
MAX_EXACT_CELLS = 2 ** 20


def check_exact_cells(cells: int, what: str):
    """Raise :class:`CapacityError` when ``what`` has more than ``MAX_EXACT_CELLS`` cells."""
    if cells > MAX_EXACT_CELLS:
        raise CapacityError(
            f"{what} has {cells} cells, over the exact-oracle cap {MAX_EXACT_CELLS}"
        )


@dataclass
class ContingencyTable:
    """Joint probability table over two finite alphabets.

    ``table`` is |X| x |Y|, non-negative, and sums to one.  Categories
    with zero marginal probability are removed by the constructors (the
    centered ratio matrix divides by marginals), and their labels are
    kept in ``dropped_x`` / ``dropped_y`` as a warning record.
    """

    table: np.ndarray
    x_labels: tuple
    y_labels: tuple
    dropped_x: tuple = ()
    dropped_y: tuple = ()

    def __post_init__(self):
        self.table = as_matrix(self.table, "contingency table")
        if self.table.shape != (len(self.x_labels), len(self.y_labels)):
            raise ContractViolationError("label lists do not match table shape")
        if float(self.table.min()) < 0:
            raise ContractViolationError("contingency table has negative entries")
        if abs(float(self.table.sum()) - 1.0) > 1e-12:
            raise ContractViolationError("contingency table must sum to 1")
        if np.any(self.table.sum(axis=1) == 0) or np.any(self.table.sum(axis=0) == 0):
            raise ContractViolationError("contingency table has an all-zero row or column")

    @property
    def marginals_x(self) -> np.ndarray:
        return self.table.sum(axis=1)

    @property
    def marginals_y(self) -> np.ndarray:
        return self.table.sum(axis=0)


@dataclass
class CaDecomposition:
    """Orthogonal factors and factor scores of a contingency table.

    ``l_factors`` (|X| x d) and ``r_factors`` (|Y| x d) are orthonormal
    under the marginal-weighted inner products, ``scores`` are the
    squared singular values (descending) and ``score_ratios`` their
    shares of the total.  ``sigmas`` exposes the raw singular values;
    the two spectra are deliberately kept side by side because the
    literature is loose about which one it calls the "components".
    From :func:`ca_decompose` the two factor matrices are views into the
    SVD's ``u`` and ``vt`` (``r_factors`` a transposed one), scaled in place.
    """

    l_factors: np.ndarray
    r_factors: np.ndarray
    scores: np.ndarray
    score_ratios: np.ndarray
    marginals_x: np.ndarray
    marginals_y: np.ndarray

    @property
    def sigmas(self) -> np.ndarray:
        return np.sqrt(self.scores)

    @property
    def d(self) -> int:
        return self.scores.size


def _drop_zero_marginals(table, x_labels, y_labels):
    px = table.sum(axis=1)
    py = table.sum(axis=0)
    keep_x = px > 0
    keep_y = py > 0
    dropped_x = tuple(l for l, k in zip(x_labels, keep_x) if not k)
    dropped_y = tuple(l for l, k in zip(y_labels, keep_y) if not k)
    if dropped_x or dropped_y:
        warnings.warn(
            f"dropping never-observed categories x={list(dropped_x)} y={list(dropped_y)}",
            RuntimeWarning,
            stacklevel=3,
        )
        table = table[np.ix_(keep_x, keep_y)]
        x_labels = tuple(l for l, k in zip(x_labels, keep_x) if k)
        y_labels = tuple(l for l, k in zip(y_labels, keep_y) if k)
    return table, x_labels, y_labels, dropped_x, dropped_y


def contingency_from_pmf(pmf, x_labels=None, y_labels=None) -> ContingencyTable:
    """Wrap an exact joint pmf as a contingency table.

    The pmf must be non-negative and sum to one within 1e-9; it is
    renormalized exactly to remove the residual rounding.  Zero-marginal
    categories are dropped with a warning record.
    """
    p = as_matrix(pmf, "pmf")
    if float(p.min()) < 0:
        raise ContractViolationError("pmf has negative entries")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ContractViolationError(f"pmf sums to {total!r}, expected 1")
    p = p / total
    if x_labels is None:
        x_labels = tuple(range(p.shape[0]))
    if y_labels is None:
        y_labels = tuple(range(p.shape[1]))
    if len(x_labels) != p.shape[0] or len(y_labels) != p.shape[1]:
        raise ContractViolationError("label lists do not match pmf shape")
    p, x_labels, y_labels, dx, dy = _drop_zero_marginals(p, tuple(x_labels), tuple(y_labels))
    return ContingencyTable(p, x_labels, y_labels, dx, dy)


def q_matrix(t: ContingencyTable) -> np.ndarray:
    """Centered, marginal-weighted ratio matrix of a contingency table.

    Entry (i, j) is ``(p(i,j) - px(i) py(j)) / sqrt(px(i) py(j))``.  All
    its singular values lie in [0, 1]; it is the zero matrix exactly
    when the two variables are independent.  The marginals are positive:
    :class:`ContingencyTable` rejects an all-zero row or column.

    It holds two table-sized arrays: the difference, which becomes the
    result, and the expected table, which takes its own square root
    before the difference is divided by it in place.  Each entry gets
    the operations of ``(P - E) / sqrt(E)``, so the same bytes.
    """
    expected = np.outer(t.marginals_x, t.marginals_y)
    q = t.table - expected
    q /= np.sqrt(expected, out=expected)
    return q


def ca_decompose(t: ContingencyTable) -> CaDecomposition:
    """Full correspondence-analysis decomposition of a table.

    The ratio matrix is already centered, so its leading d = min(|X|,
    |Y|) - 1 singular triplets are exactly the non-trivial factors; the
    remaining triplet spans the null direction induced by centering and
    is discarded.  The factors are ``u[:, :d]`` and ``vt[:d].T`` divided
    in place by the roots of the marginals: views, not copies, with the
    bytes of the out-of-place quotients.

    Once ``q`` and the marginals are formed the table is no longer
    needed, and this function drops its reference to it before the SVD:
    a caller that hands over the only reference (as
    :func:`capic.experiment.run_experiment` does) has the table freed
    while numpy's SVD runs.  The table itself is never written to.
    """
    q = q_matrix(t)
    px = t.marginals_x
    py = t.marginals_y
    del t
    u, s, vt = svd(q)
    d = min(q.shape) - 1
    l_factors = u[:, :d]
    l_factors /= np.sqrt(px)[:, None]
    r_factors = vt[:d].T
    r_factors /= np.sqrt(py)[:, None]
    scores = s[:d] ** 2
    total = float(scores.sum())
    ratios = scores / total if total > 0 else np.zeros_like(scores)
    return CaDecomposition(l_factors, r_factors, scores, ratios, px, py)


def pics_exact(pmf, x_labels=None, y_labels=None) -> np.ndarray:
    """Exact principal-inertia spectrum (singular values) of a joint pmf.

    Convenience composition of :func:`contingency_from_pmf` and
    :func:`ca_decompose`; returns the descending singular-value spectrum
    (the square roots of the factor scores).  This is the ground-truth
    oracle used by every discrete test.
    """
    p = as_matrix(pmf, "pmf")
    check_exact_cells(p.size, "joint alphabet")
    t = contingency_from_pmf(p, x_labels, y_labels)
    return ca_decompose(t).sigmas
