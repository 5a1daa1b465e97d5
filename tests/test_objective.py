import numpy as np
import pytest

from capic.errors import ContractViolationError, SingularCovarianceError
from capic.objective import (
    BatchOutputs,
    empirical_covariances,
    pic_loss,
)


def surrogate_loss(f, g, eps):
    """Loss, Ky-Fan term and gradients of :func:`pic_loss`."""
    rep = pic_loss(BatchOutputs(f, g), eps=eps)
    return rep.loss, rep.kyfan_term, rep.grad_f, rep.grad_g


def kyfan_reference(c_f, c_fg, eps):
    """Explicit-SVD route for the Ky-Fan term, the reference for the surrogate.

    Forms ``B = W^{1/2} C_fg`` with ``W = C_f^{-1} + eps*I`` (at
    ``eps = 0`` this is ``C_f^{-1/2} C_fg``), takes ``kyfan = ||B||_*``
    and differentiates with ``d||B||_*/dB = U V^T``, chaining through
    the matrix square root with the eigenbasis divided-difference rule
    ``1 / (sqrt(w_i) + sqrt(w_j))``.  Needs a full-rank ``C_f``.
    """
    cf_inv = np.linalg.inv(c_f)
    omega, e = np.linalg.eigh(cf_inv + eps * np.eye(c_f.shape[0]))
    root = np.sqrt(omega)
    w_half = (e * root) @ e.T
    u, s, vt = np.linalg.svd(w_half @ c_fg)
    g_b = u @ vt
    grad_cfg = w_half @ g_b
    # d kyfan / d W through the matrix square root of W.
    a = c_fg @ g_b.T
    a = (a + a.T) / 2.0
    grad_w = e @ ((e.T @ a @ e) / (root[:, None] + root[None, :])) @ e.T
    grad_cf = -cf_inv @ grad_w @ cf_inv
    return float(s.sum()), grad_cf, grad_cfg


def reference_loss(f, g, eps):
    """What :func:`surrogate_loss` returns, computed through :func:`kyfan_reference`."""
    n = f.shape[1]
    kyfan, grad_cf, grad_cfg = kyfan_reference(f @ f.T / n, f @ g.T / n, eps)
    loss = -2.0 * kyfan + float((g ** 2).sum() / n)
    grad_f = -2.0 * ((2.0 / n) * grad_cf @ f + (1.0 / n) * grad_cfg @ g)
    grad_g = -2.0 * ((1.0 / n) * grad_cfg.T @ f) + (2.0 / n) * g
    return loss, kyfan, grad_f, grad_g


def central_diff_grads(loss_fn, f_tilde, g_tilde, eps, step=1e-5):
    """Independent oracle: central finite differences of the loss value."""

    def value(f, g):
        return loss_fn(f, g, eps)[0]

    grads = []
    for which, base in (("f", f_tilde), ("g", g_tilde)):
        grad = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            bumped = base.copy()
            bumped[idx] += step
            up = value(bumped if which == "f" else f_tilde,
                       bumped if which == "g" else g_tilde)
            bumped[idx] -= 2 * step
            down = value(bumped if which == "f" else f_tilde,
                         bumped if which == "g" else g_tilde)
            grad[idx] = (up - down) / (2 * step)
        grads.append(grad)
    return grads


def max_rel_err(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-6)))


def whiten_rows(m):
    centered = m - m.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / m.shape[1]
    w, v = np.linalg.eigh(cov)
    return (v * w ** -0.5) @ v.T @ centered


class TestEmpiricalCovariances:
    def test_identity_batch(self):
        b = BatchOutputs(np.eye(3), np.eye(3))
        c_f, c_fg, g_energy = empirical_covariances(b)
        np.testing.assert_allclose(c_f, np.eye(3) / 3, atol=1e-15)
        np.testing.assert_allclose(c_fg, np.eye(3) / 3, atol=1e-15)
        assert g_energy == pytest.approx(1.0)

    def test_zero_g(self):
        b = BatchOutputs(np.ones((2, 4)), np.zeros((2, 4)))
        _, c_fg, g_energy = empirical_covariances(b)
        np.testing.assert_allclose(c_fg, 0.0)
        assert g_energy == 0.0

    def test_matches_per_sample_loop(self):
        rng = np.random.default_rng(13)
        f = rng.normal(size=(3, 100))
        g = rng.normal(size=(3, 100))
        c_f, c_fg, g_energy = empirical_covariances(BatchOutputs(f, g))
        c_f_loop = np.zeros((3, 3))
        c_fg_loop = np.zeros((3, 3))
        energy_loop = 0.0
        for k in range(100):
            c_f_loop += np.outer(f[:, k], f[:, k])
            c_fg_loop += np.outer(f[:, k], g[:, k])
            energy_loop += float(g[:, k] @ g[:, k])
        np.testing.assert_allclose(c_f, c_f_loop / 100, atol=1e-12)
        np.testing.assert_allclose(c_fg, c_fg_loop / 100, atol=1e-12)
        assert g_energy == pytest.approx(energy_loop / 100, abs=1e-12)

    def test_sample_count_mismatch_rejected(self):
        with pytest.raises(ContractViolationError):
            BatchOutputs(np.ones((2, 5)), np.ones((2, 4)))

    def test_requires_n_at_least_d(self):
        with pytest.raises(ContractViolationError):
            BatchOutputs(np.ones((4, 3)), np.ones((4, 3)))


class TestPicLoss:
    def test_perfectly_matched_whitened_outputs(self):
        rng = np.random.default_rng(29)
        f = whiten_rows(rng.normal(size=(3, 200)))
        rep = pic_loss(BatchOutputs(f, f), eps=0.0)
        assert rep.kyfan_term == pytest.approx(3.0, abs=1e-9)
        assert rep.g_energy == pytest.approx(3.0, abs=1e-9)
        assert rep.loss == pytest.approx(-3.0, abs=1e-9)

    def test_independent_batches_near_zero(self):
        rng = np.random.default_rng(31)
        f = rng.normal(size=(3, 10_000))
        g = rng.normal(size=(3, 10_000))
        rep = pic_loss(BatchOutputs(f, g), eps=0.0)
        assert rep.kyfan_term < 0.1

    def test_loss_identity_holds_exactly(self):
        rng = np.random.default_rng(37)
        rep = pic_loss(BatchOutputs(rng.normal(size=(2, 40)), rng.normal(size=(2, 40))))
        assert rep.loss == -2.0 * rep.kyfan_term + rep.g_energy
        assert np.all(np.isfinite(rep.grad_f))
        assert np.all(np.isfinite(rep.grad_g))

    def test_exact_route_matches_surrogate(self):
        rng = np.random.default_rng(41)
        f = rng.normal(size=(3, 60))
        g = rng.normal(size=(3, 60))
        for eps in (0.0, 1e-3):
            _, kyfan, grad_f, grad_g = surrogate_loss(f, g, eps)
            _, ref_kyfan, ref_grad_f, ref_grad_g = reference_loss(f, g, eps)
            assert kyfan == pytest.approx(ref_kyfan, abs=1e-9)
            np.testing.assert_allclose(grad_f, ref_grad_f, atol=1e-8)
            np.testing.assert_allclose(grad_g, ref_grad_g, atol=1e-8)

    def test_singular_covariance_needs_eps(self):
        f = np.zeros((2, 10))
        f[0] = np.linspace(-1, 1, 10)  # second row constant zero: C_f singular
        g = np.random.default_rng(1).normal(size=(2, 10))
        with pytest.raises(SingularCovarianceError):
            pic_loss(BatchOutputs(f, g), eps=0.0)
        rep = pic_loss(BatchOutputs(f, g), eps=1e-3)
        assert np.isfinite(rep.loss)

    def test_scale_balance_at_eps_zero(self):
        rng = np.random.default_rng(43)
        f = rng.normal(size=(3, 80))
        g = rng.normal(size=(3, 80))
        base = pic_loss(BatchOutputs(f, g), eps=0.0).kyfan_term
        scaled = pic_loss(BatchOutputs(7.3 * f, g), eps=0.0).kyfan_term
        assert scaled == pytest.approx(base, abs=1e-8)

    def test_lower_bound_for_whitened_g(self):
        rng = np.random.default_rng(47)
        for trial in range(5):
            d = int(rng.integers(2, 5))
            f = rng.normal(size=(d, 300))
            g = whiten_rows(rng.normal(size=(d, 300)))
            rep = pic_loss(BatchOutputs(f, g), eps=0.0)
            assert rep.kyfan_term >= 0.0
            assert rep.g_energy >= 0.0
            assert rep.loss >= -d - 1e-6


class TestPicLossGrad:
    def test_g_energy_term_alone(self):
        # rows of g orthogonal to rows of f: C_fg = 0 so only the energy
        # term contributes, giving grad_g = (2/n) g exactly
        f = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])
        g = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, 1.0, 1.0]])
        rep = pic_loss(BatchOutputs(f, g), eps=1e-3)
        np.testing.assert_allclose(rep.grad_g, 2.0 / 4.0 * g, atol=1e-12)
        np.testing.assert_allclose(rep.grad_f, 0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "eps,reference", [(1e-3, False), (0.0, False), (0.0, True), (1e-3, True)]
    )
    def test_full_loss_small_batch_finite_differences(self, eps, reference):
        rng = np.random.default_rng(53)
        f = rng.normal(size=(2, 50))
        g = 0.4 * f + rng.normal(size=(2, 50))
        loss_fn = reference_loss if reference else surrogate_loss
        _, _, grad_f, grad_g = loss_fn(f, g, eps)
        fd_f, fd_g = central_diff_grads(loss_fn, f, g, eps)
        assert max_rel_err(grad_f, fd_f) < 1e-4
        assert max_rel_err(grad_g, fd_g) < 1e-4

    def test_diagonal_structured_batch_finite_differences(self):
        rng = np.random.default_rng(59)
        f = whiten_rows(rng.normal(size=(3, 90)))
        g = np.diag([1.5, 0.9, 0.3]) @ f + 0.1 * rng.normal(size=(3, 90))
        rep = pic_loss(BatchOutputs(f, g), eps=0.0)
        fd_f, fd_g = central_diff_grads(surrogate_loss, f, g, 0.0)
        assert max_rel_err(rep.grad_f, fd_f) < 1e-4
        assert max_rel_err(rep.grad_g, fd_g) < 1e-4


def distinct_batch(seed=61, k=12, d=3):
    """``(f, g, counts)``: k distinct columns and how many samples hold each."""
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(d, k))
    g = 0.5 * f + rng.normal(size=(d, k))
    return f, g, rng.integers(1, 20, size=k)


def per_column_sums(grad, counts):
    """A per-sample gradient of the expanded batch summed over each column's samples."""
    column = np.repeat(np.arange(counts.size), counts)
    return np.stack([np.bincount(column, weights=row, minlength=counts.size) for row in grad])


def pair_scale(counts):
    """``sqrt(k * c / n)`` per column: the column scale of a full-batch step's pairs."""
    return np.sqrt(counts.size * counts / counts.sum())


def expanded(f, g, counts):
    """The batch of samples that the distinct columns stand for."""
    return BatchOutputs(np.repeat(f, counts, axis=1), np.repeat(g, counts, axis=1))


class TestWeightedPicLoss:
    # the plain loss on the scaled distinct columns is the loss on every
    # sample; the gradient at an unscaled column is the scaled one's
    # times the same factor
    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_counts_over_n_match_the_expanded_samples(self, eps):
        f, g, counts = distinct_batch()
        scale = pair_scale(counts)
        rep = pic_loss(BatchOutputs(f * scale, g * scale), eps=eps)
        ref = pic_loss(expanded(f, g, counts), eps=eps)
        assert rep.loss == pytest.approx(ref.loss, abs=1e-12)
        assert rep.kyfan_term == pytest.approx(ref.kyfan_term, abs=1e-12)
        assert rep.g_energy == pytest.approx(ref.g_energy, abs=1e-12)
        np.testing.assert_allclose(rep.grad_f * scale, per_column_sums(ref.grad_f, counts),
                                   atol=1e-12)
        np.testing.assert_allclose(rep.grad_g * scale, per_column_sums(ref.grad_g, counts),
                                   atol=1e-12)

    def test_weighted_covariances_match_the_expanded_samples(self):
        f, g, counts = distinct_batch()
        scale = pair_scale(counts)
        scaled = empirical_covariances(BatchOutputs(f * scale, g * scale))
        for a, b in zip(scaled, empirical_covariances(expanded(f, g, counts))):
            np.testing.assert_allclose(a, b, atol=1e-12)
