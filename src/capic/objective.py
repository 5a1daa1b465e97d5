"""Training loss for the neural principal-function estimator.

The loss on a batch of encoder outputs F (d x n) and G (d x n) is

    loss = -2 * kyfan + (1/n) * sum_i ||g_i||^2

where ``kyfan`` is the sum of the top-d singular values of the whitened
cross-covariance ``C_f^{-1/2} C_fg`` with ``C_f = (1/n) F F^T`` and
``C_fg = (1/n) F G^T``.  Minimizing it drives the two encoders toward
the leading principal-function pairs of the joint distribution.

The Ky-Fan term is evaluated as ``sum sqrt(eig(M))`` with
``M = C_fg^T (C_f^{-1} + eps*I) C_fg``.  This equals the nuclear norm of
``(C_f^{-1} + eps*I)^{1/2} C_fg``, which is the nuclear norm above at
``eps = 0``, and it needs no matrix square root of ``C_f``, so it stays
stable when ``C_f`` is poorly conditioned.  Its gradients are analytic.
The test suite checks them against central finite differences and checks
value and gradients against an explicit-SVD reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, SingularCovarianceError
from .linalg import as_matrix, psd_power

#: Default regularizer for the surrogate route; 0 is allowed for
#: evaluation-only reporting when C_f is full rank.
DEFAULT_EPS = 1e-3


@dataclass
class BatchOutputs:
    """Raw encoder outputs for one batch, columns are samples."""

    f_tilde: np.ndarray  # d x n
    g_tilde: np.ndarray  # d x n

    def __post_init__(self):
        self.f_tilde = as_matrix(self.f_tilde, "f_tilde")
        self.g_tilde = as_matrix(self.g_tilde, "g_tilde")
        if self.f_tilde.shape[1] != self.g_tilde.shape[1]:
            raise ContractViolationError(
                f"f_tilde has {self.f_tilde.shape[1]} samples but "
                f"g_tilde has {self.g_tilde.shape[1]}"
            )
        if self.f_tilde.shape[0] < 1 or self.g_tilde.shape[0] < 1:
            raise ContractViolationError("encoder outputs must have d >= 1")
        if self.n < self.f_tilde.shape[0]:
            raise ContractViolationError(
                f"need n >= d, got n={self.n}, d={self.f_tilde.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.f_tilde.shape[1]

    @property
    def d(self) -> int:
        return self.f_tilde.shape[0]


@dataclass
class LossReport:
    """Loss value, its two terms, and the batch-output gradients."""

    loss: float
    kyfan_term: float
    g_energy: float
    grad_f: np.ndarray
    grad_g: np.ndarray


def empirical_covariances(b: BatchOutputs):
    """Batch estimates ``C_f``, ``C_fg`` and the mean squared g-norm."""
    n = b.n
    c_f = b.f_tilde @ b.f_tilde.T / n
    c_fg = b.f_tilde @ b.g_tilde.T / n
    g_energy = float((b.g_tilde ** 2).sum() / n)
    return c_f, c_fg, g_energy


def _kyfan_surrogate(c_f, c_fg, eps):
    """Value and covariance-space gradients of the surrogate Ky-Fan term.

    With ``M = C_fg^T W C_fg`` and ``W = C_f^{-1} + eps*I``:

        kyfan        = sum sqrt(eig(M))
        d/d C_fg     = W C_fg M^{-1/2}
        d/d C_f      = -1/2 C_f^{-1} C_fg M^{-1/2} C_fg^T C_f^{-1}

    ``C_f^{-1}`` and ``M^{-1/2}`` drop modes below the rank cutoff; for
    ``M`` that is the subgradient choice at zero singular values.  With
    ``eps == 0`` a rank-deficient ``C_f`` is an error because the
    whitened cross-covariance is then undefined.
    """
    d = c_f.shape[0]
    cf_inv, _, rank = psd_power(c_f, -1.0)
    if eps == 0.0 and rank < d:
        raise SingularCovarianceError(
            "C_f is singular; pass eps > 0 to use the regularized surrogate"
        )
    w_mat = cf_inv + eps * np.eye(d)
    m = c_fg.T @ w_mat @ c_fg
    m_inv_half, mu, _ = psd_power((m + m.T) / 2.0, -0.5)
    kyfan = float(np.sqrt(np.maximum(mu, 0.0)).sum())
    grad_cfg = w_mat @ c_fg @ m_inv_half
    grad_cf = -0.5 * cf_inv @ c_fg @ m_inv_half @ c_fg.T @ cf_inv
    return kyfan, grad_cf, grad_cfg


def pic_loss(b: BatchOutputs, eps: float = DEFAULT_EPS) -> LossReport:
    """Loss, term breakdown and batch-output gradients for one batch.

    ``eps`` regularizes the inverse covariance inside the Ky-Fan term;
    the training default keeps the term finite even for badly scaled
    encoders, while ``eps = 0`` reports the unregularized objective and
    raises :class:`SingularCovarianceError` if ``C_f`` is singular.
    """
    if eps < 0:
        raise ContractViolationError("eps must be >= 0")
    n = b.n
    c_f, c_fg, g_energy = empirical_covariances(b)
    kyfan, grad_cf, grad_cfg = _kyfan_surrogate(c_f, c_fg, eps)
    loss = -2.0 * kyfan + g_energy
    # Chain covariance-space gradients to the batch matrices and fold in
    # the -2 factor and the g-energy term.
    grad_f = -2.0 * ((2.0 / n) * grad_cf @ b.f_tilde + (1.0 / n) * grad_cfg @ b.g_tilde)
    grad_g = -2.0 * ((1.0 / n) * grad_cfg.T @ b.f_tilde) + (2.0 / n) * b.g_tilde
    return LossReport(loss, kyfan, g_energy, grad_f, grad_g)
