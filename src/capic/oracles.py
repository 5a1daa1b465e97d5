"""Analytic ground truth and synthetic samplers for the test problems.

Covers the three families with known principal-function structure:

* n-bit strings through a binary symmetric channel, where the spectrum
  for a uniform input is ``(1 - 2*delta)**k`` with multiplicity
  ``C(n, k)``;
* the additive Gaussian pair, whose principal functions are the
  normalized probabilists' Hermite polynomials and whose component
  correlations are powers of the Pearson correlation;
* a two-mode Gaussian mixture in the plane.

Every sampler is a pure function of its spec and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import MAX_EXACT_CELLS
from .datasets import PairedDataset
from .errors import CapacityError, ContractViolationError, NotPsdError

#: Largest bit-string length for the exact joint pmf: the largest n whose
#: 4^n cells ``classical.pics_exact`` accepts (10 bits, 2^20 cells).
MAX_PMF_BITS = (MAX_EXACT_CELLS.bit_length() - 1) // 2

#: Largest supported Hermite degree; the recurrence is stable well past
#: this but the factorial normalization starts losing digits.
MAX_HERMITE_DEGREE = 20


@dataclass
class BscSpec:
    """n-bit input with i.i.d. Bernoulli(p) bits, each flipped w.p. delta."""

    n_bits: int
    delta: float
    p: float = 0.5

    def __post_init__(self):
        if self.n_bits < 1:
            raise ContractViolationError("n_bits must be >= 1")
        if not 0.0 <= self.delta <= 1.0:
            raise ContractViolationError("delta must be in [0, 1]")
        if not 0.0 < self.p < 1.0:
            raise ContractViolationError("p must be in (0, 1)")


@dataclass
class GaussianPairSpec:
    """X ~ N(0, sigma1), Y = X + Z with Z ~ N(0, sigma2); sigmas are variances."""

    sigma1: float
    sigma2: float
    n_samples: int
    seed: int = 0

    def __post_init__(self):
        if self.sigma1 <= 0 or self.sigma2 <= 0:
            raise ContractViolationError("variances must be positive")
        if self.n_samples < 1:
            raise ContractViolationError("n_samples must be >= 1")


def bsc_spectrum_uniform(n_bits, delta):
    """Exact spectrum for a uniform-input bit-flip channel.

    Returns ``[(value, multiplicity), ...]`` for k = 1..n, i.e.
    ``(1 - 2*delta)**k`` with multiplicity ``C(n, k)``.  Requires
    ``delta <= 1/2`` (the channel is symmetric around it).
    """
    if delta > 0.5:
        raise ContractViolationError("delta must be <= 1/2 for the closed form")
    return [
        ((1.0 - 2.0 * delta) ** k, math.comb(n_bits, k)) for k in range(1, n_bits + 1)
    ]


def spectrum_to_vector(spectrum):
    """Flatten a (value, multiplicity) list to a descending vector."""
    values = []
    for value, mult in spectrum:
        values.extend([value] * mult)
    return np.sort(np.asarray(values, dtype=np.float64))[::-1]


def _popcounts(limit):
    counts = np.zeros(limit, dtype=np.int64)
    for i in range(1, limit):
        counts[i] = counts[i >> 1] + (i & 1)
    return counts


def bsc_joint_pmf(spec: BscSpec) -> np.ndarray:
    """Exact joint pmf over all (x, y) bit-string pairs.

    Cell (x, y) equals ``p(x) * delta**h * (1-delta)**(n-h)`` with h the
    Hamming distance.  Limited to ``n_bits <= MAX_PMF_BITS``.
    """
    n = spec.n_bits
    if n > MAX_PMF_BITS:
        raise CapacityError(f"n_bits={n} exceeds the exact-pmf cap {MAX_PMF_BITS}")
    size = 1 << n
    pop = _popcounts(size)
    ones_x = pop  # number of 1-bits per input string
    px = spec.p ** ones_x * (1.0 - spec.p) ** (n - ones_x)
    ham = pop[np.bitwise_xor.outer(np.arange(size), np.arange(size))]
    flip = spec.delta ** ham * (1.0 - spec.delta) ** (n - ham)
    return px[:, None] * flip


def bsc_sample(spec: BscSpec, n_samples, seed) -> PairedDataset:
    """Seeded i.i.d. draws of (x, y) bit strings as 0/1 feature matrices."""
    rng = np.random.default_rng(seed)
    x = (rng.random((spec.n_bits, n_samples)) < spec.p).astype(np.float64)
    flips = (rng.random((spec.n_bits, n_samples)) < spec.delta).astype(np.float64)
    y = np.abs(x - flips)  # xor on 0/1 floats
    return PairedDataset(
        x=x, y=y, x_kind="continuous", y_kind="continuous",
        provenance={
            "source": "bsc", "n_bits": spec.n_bits, "delta": spec.delta,
            "p": spec.p, "seed": seed,
        },
    )


def hermite(i, r, x):
    """Normalized probabilists' Hermite polynomial of degree ``i``.

    Evaluates ``He_i(x / sqrt(r)) / sqrt(i!)`` by the three-term
    recurrence ``He_{k+1}(u) = u He_k(u) - k He_{k-1}(u)``.  This family
    is orthonormal for X ~ N(0, r) (``r`` is the variance), which is the
    property the principal-function comparisons rely on.
    """
    if i < 0 or i > MAX_HERMITE_DEGREE:
        raise ContractViolationError(f"degree must be in [0, {MAX_HERMITE_DEGREE}]")
    if r <= 0:
        raise ContractViolationError("r must be > 0")
    u = np.asarray(x, dtype=np.float64) / math.sqrt(r)
    prev = np.ones_like(u)
    if i == 0:
        out = prev
    else:
        cur = u.copy()
        for k in range(1, i):
            prev, cur = cur, u * cur - k * prev
        out = cur
    out = out / math.sqrt(math.factorial(i))
    return out if np.ndim(x) else float(out)


def gaussian_pair_sample(spec: GaussianPairSpec) -> PairedDataset:
    """Seeded scalar Gaussian pair, 1 x n feature matrices."""
    rng = np.random.default_rng(spec.seed)
    x = rng.normal(0.0, math.sqrt(spec.sigma1), size=spec.n_samples)
    y = x + rng.normal(0.0, math.sqrt(spec.sigma2), size=spec.n_samples)
    return PairedDataset(
        x=x[None, :], y=y[None, :],
        provenance={
            "source": "gaussian", "sigma1": spec.sigma1, "sigma2": spec.sigma2,
            "seed": spec.seed,
        },
    )


def gaussian_reference_values(sigma1, sigma2, k):
    """Closed-form component correlations of the additive Gaussian pair.

    The i-th value is ``rho**i`` with ``rho = sqrt(sigma1 / (sigma1 +
    sigma2))``, the inner product of the degree-i normalized Hermite
    polynomials of X and Y.  The test suite re-derives these numbers by
    Monte-Carlo evaluation of that inner product before trusting them.
    """
    if k < 1:
        raise ContractViolationError("k must be >= 1")
    if sigma1 < 0 or sigma2 <= 0:
        raise ContractViolationError("need sigma1 >= 0 and sigma2 > 0")
    rho = math.sqrt(sigma1 / (sigma1 + sigma2))
    return rho ** np.arange(1, k + 1, dtype=np.float64)


def multimodal_gaussian_sample(mu0, mu1, cov, p_mode, n, seed) -> PairedDataset:
    """Two-mode planar Gaussian mixture, returned as a scalar (x, y) pair.

    A Bernoulli(p_mode) latent selects the mode mean; both modes share
    the 2 x 2 covariance.  The latent draws are stored under
    ``provenance["modes"]`` so tests can score how well a learned
    function recovers them.
    """
    mu0 = np.asarray(mu0, dtype=np.float64)
    mu1 = np.asarray(mu1, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    if mu0.shape != (2,) or mu1.shape != (2,) or cov.shape != (2, 2):
        raise ContractViolationError("means must be length-2, cov must be 2x2")
    if not 0.0 <= p_mode <= 1.0:
        raise ContractViolationError("p_mode must be in [0, 1]")
    if abs(cov[0, 1] - cov[1, 0]) > 1e-12:
        raise NotPsdError("covariance must be symmetric")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NotPsdError("covariance must be positive definite") from None
    rng = np.random.default_rng(seed)
    modes = rng.random(n) < p_mode
    z = rng.standard_normal((2, n))
    means = np.where(modes[None, :], mu1[:, None], mu0[:, None])
    pair = means + chol @ z
    return PairedDataset(
        x=pair[0:1, :], y=pair[1:2, :],
        provenance={
            "source": "multimodal", "mu0": mu0.tolist(), "mu1": mu1.tolist(),
            "cov": cov.tolist(), "p_mode": p_mode, "seed": seed,
            "modes": modes.astype(np.int64),
        },
    )
