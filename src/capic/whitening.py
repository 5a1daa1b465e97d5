"""Whitening and alignment of raw encoder outputs into principal functions.

Given raw batch outputs F~ and G~ (d x n, columns are samples), the fit
step

1. removes the per-row means,
2. forms the inverse square roots of the two sample covariances,
3. takes the SVD of the whitened cross-covariance
   ``L = (1/n) (C_f^{-1/2} F~)(C_g^{-1/2} G~)^T = U S V^T``, and
4. returns ``A = U^T C_f^{-1/2}`` and ``B = V^T C_g^{-1/2}``.

Applying ``(A, B)`` to the fitting set yields matrices F, G with
``(1/n) F F^T = (1/n) G G^T = I`` and ``(1/n) F G^T`` diagonal with the
estimated component correlations on the diagonal, descending.  On
held-out data those identities hold only approximately; they are never
asserted, and not yet reported.  :mod:`capic.model` folds the fitted
transform into each net's output layer, so a trained model's nets
output F and G themselves.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DegenerateEmbeddingError
from .linalg import as_matrix, psd_power, svd

#: Reported diagonal entries are clipped into this interval; the raw
#: values stay available on the result.
CLAMP_LO = -1.0
CLAMP_HI = 1.0 + 0.01


@dataclass
class WhiteningTransform:
    a: np.ndarray        # d x d, applied to centered F~
    b: np.ndarray        # d x d, applied to centered G~
    mean_f: np.ndarray   # fitting-set row means of F~
    mean_g: np.ndarray   # fitting-set row means of G~


@dataclass
class PrincipalFunctions:
    """Principal-function values of n samples and their component correlations."""

    f: np.ndarray               # d x n
    g: np.ndarray               # d x n
    pic_diagonal: np.ndarray    # clamped for reporting
    raw_diagonal: np.ndarray    # as computed


def _center_and_whiten(m, which):
    """Row means, centered rows and the inverse square root of their covariance."""
    mean = m.mean(axis=1)
    centered = m - mean[:, None]
    root, w, rank = psd_power(centered @ centered.T / m.shape[1], -0.5)
    if rank < m.shape[0]:
        raise DegenerateEmbeddingError(
            f"{which} outputs collapsed: sample covariance is rank-deficient "
            f"(eigenvalues {np.array2string(w, precision=3)})"
        )
    return mean, centered, root


def fit_whitening(f_tilde, g_tilde) -> WhiteningTransform:
    """Fit the whitening-and-alignment transform on one batch.

    Requires ``n > d`` and full-rank centered covariances on both sides;
    a collapsed encoder raises :class:`DegenerateEmbeddingError` naming
    which side went degenerate.
    """
    f_tilde = as_matrix(f_tilde, "f_tilde")
    g_tilde = as_matrix(g_tilde, "g_tilde")
    if f_tilde.shape != g_tilde.shape:
        raise ContractViolationError(
            f"output shapes differ: {f_tilde.shape} vs {g_tilde.shape}"
        )
    d, n = f_tilde.shape
    if n <= d:
        raise ContractViolationError(f"need n > d to fit whitening, got n={n}, d={d}")
    mean_f, fc, cf_root = _center_and_whiten(f_tilde, "F-encoder")
    mean_g, gc, cg_root = _center_and_whiten(g_tilde, "G-encoder")
    cross = (cf_root @ fc) @ (cg_root @ gc).T / n
    u, _, vt = svd(cross)
    return WhiteningTransform(a=u.T @ cf_root, b=vt @ cg_root, mean_f=mean_f, mean_g=mean_g)


def apply_whitening(w: WhiteningTransform, f_tilde, g_tilde) -> PrincipalFunctions:
    """Apply a fitted transform, then :func:`principal_functions`."""
    f_tilde = as_matrix(f_tilde, "f_tilde")
    g_tilde = as_matrix(g_tilde, "g_tilde")
    if f_tilde.shape[0] != w.a.shape[0] or g_tilde.shape[0] != w.b.shape[0]:
        raise ContractViolationError("output width does not match the fitted transform")
    f = w.a @ (f_tilde - w.mean_f[:, None])
    return principal_functions(f, w.b @ (g_tilde - w.mean_g[:, None]))


def principal_functions(f, g) -> PrincipalFunctions:
    """Principal-function values F, G (d x n) and their component correlations.

    ``pic_diagonal`` is ``diag((1/n) F G^T)`` clipped into
    ``[-1, 1.01]``; finite-sample estimates can exceed 1, so a clip
    beyond that range only triggers a warning while the raw values are
    kept in ``raw_diagonal``.
    """
    f = as_matrix(f, "f")
    g = as_matrix(g, "g")
    if f.shape != g.shape:
        raise ContractViolationError(f"f and g shapes differ: {f.shape} vs {g.shape}")
    raw = np.einsum("ij,ij->i", f, g) / f.shape[1]
    clamped = np.clip(raw, CLAMP_LO, CLAMP_HI)
    if np.any(raw < CLAMP_LO) or np.any(raw > CLAMP_HI):
        warnings.warn(
            f"estimated component correlations outside [{CLAMP_LO}, {CLAMP_HI}] "
            "were clipped for reporting; see raw_diagonal",
            RuntimeWarning,
            stacklevel=2,
        )
    return PrincipalFunctions(f, g, clamped, raw)
