import numpy as np
import pytest

from capic.errors import ContractViolationError, NotPsdError
from capic.linalg import RANK_TOL, _fix_signs, as_matrix, eig_sym, inv_sqrt_psd, psd_power, svd


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(3))
        np.testing.assert_allclose(res.s, [1.0, 1.0, 1.0], atol=1e-12)

    def test_diagonal(self):
        res = svd(np.diag([3.0, 2.0]))
        np.testing.assert_allclose(res.u, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(res.s, [3.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(res.vt, np.eye(2), atol=1e-12)

    def test_reconstruction_against_gram_eigensolve(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(5, 4))
        u, s, vt = svd(m)
        rebuilt = u @ np.diag(s) @ vt
        rel = np.linalg.norm(rebuilt - m) / np.linalg.norm(m)
        assert rel < 1e-8
        # independent oracle: eigenvalues of m^T m are squared singular values
        gram_eigs = np.sort(np.linalg.eigvalsh(m.T @ m))[::-1]
        np.testing.assert_allclose(s ** 2, gram_eigs, atol=1e-10)

    def test_orthonormal_thin_factors(self):
        rng = np.random.default_rng(11)
        for shape in [(6, 3), (3, 6), (5, 5)]:
            u, s, vt = svd(rng.normal(size=shape))
            np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-10)
            np.testing.assert_allclose(vt @ vt.T, np.eye(vt.shape[0]), atol=1e-10)
            assert np.all(np.diff(s) <= 1e-15)
            assert np.all(s >= 0)

    def test_sign_convention_and_determinism(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(8, 5))
        first = svd(m)
        second = svd(m.copy())
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
        for j in range(first.u.shape[1]):
            i = int(np.argmax(np.abs(first.u[:, j])))
            assert first.u[i, j] >= 0

    def test_reconstruction_random_sizes(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            rows = int(rng.integers(2, 51))
            cols = int(rng.integers(2, 51))
            m = rng.normal(size=(rows, cols))
            u, s, vt = svd(m)
            rel = np.linalg.norm(u @ np.diag(s) @ vt - m) / np.linalg.norm(m)
            assert rel < 1e-8

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractViolationError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def fix_signs_loop(vectors, companion=None):
    """Column-by-column reference for ``_fix_signs``."""
    for j in range(vectors.shape[1]):
        i = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[i, j] < 0:
            vectors[:, j] *= -1.0
            if companion is not None:
                companion[j, :] *= -1.0
    return vectors, companion


class TestFixSigns:
    def test_ties_go_to_the_lowest_index(self):
        # each column's magnitude peak is tied between rows 0 and 2
        v = np.array([[-0.5, 0.5, -0.5], [0.1, 0.2, 0.0], [0.5, -0.5, -0.5]])
        out, _ = _fix_signs(v.copy())
        np.testing.assert_array_equal(
            out, [[0.5, 0.5, 0.5], [-0.1, 0.2, -0.0], [-0.5, -0.5, 0.5]]
        )
        ref, _ = fix_signs_loop(v.copy())
        assert out.tobytes() == ref.tobytes()

    def test_companion_rows_negated_with_their_columns(self):
        rng = np.random.default_rng(29)
        u = rng.normal(size=(7, 4))
        u[:, 2] = -np.abs(u[:, 2])  # this column must flip
        vt = rng.normal(size=(4, 6))
        out_u, out_vt = _fix_signs(u.copy(), vt.copy())
        flipped = np.any(out_u != u, axis=0)
        assert flipped[2]
        np.testing.assert_array_equal(out_vt[flipped], -vt[flipped])
        np.testing.assert_array_equal(out_vt[~flipped], vt[~flipped])
        np.testing.assert_allclose(out_u @ out_vt, u @ vt, atol=1e-12)
        ref_u, ref_vt = fix_signs_loop(u.copy(), vt.copy())
        assert out_u.tobytes() == ref_u.tobytes()
        assert out_vt.tobytes() == ref_vt.tobytes()


class TestEigSym:
    def test_identity(self):
        w, _ = eig_sym(np.eye(2))
        np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-12)

    def test_two_by_two_hand_solved(self):
        w, v = eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(w, [3.0, 1.0], atol=1e-12)
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        np.testing.assert_allclose(v, expected, atol=1e-12)

    def test_rank_one_outer_product(self):
        v = np.array([1.0, -2.0, 2.0])
        w, _ = eig_sym(np.outer(v, v))
        np.testing.assert_allclose(w, [9.0, 0.0, 0.0], atol=1e-12)

    def test_reconstructs_input(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(6, 6))
        m = a + a.T
        w, v = eig_sym(m)
        np.testing.assert_allclose(v @ np.diag(w) @ v.T, m, atol=1e-8)
        np.testing.assert_allclose(v.T @ v, np.eye(6), atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ContractViolationError):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestInvSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(inv_sqrt_psd(np.eye(4)), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        out = inv_sqrt_psd(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(out, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    def test_inverse_property_full_rank(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 5))
        m = a @ a.T + 0.5 * np.eye(5)
        r = inv_sqrt_psd(m)
        np.testing.assert_allclose(r @ m @ r, np.eye(5), atol=1e-6)

    def test_rank_deficient_clamps_to_zero(self):
        out = inv_sqrt_psd(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_not_psd_raises(self):
        with pytest.raises(NotPsdError):
            inv_sqrt_psd(np.diag([1.0, -1.0]))


class TestPsdPower:
    def test_pseudo_inverse_drops_modes_under_the_cutoff(self):
        # 1e-14 is under RANK_TOL * 4 and the tiny negative eigenvalue is
        # clipped, so both modes are dropped and the rank is 1.
        q = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, np.sqrt(2.0)]])
        q /= np.sqrt(2.0)
        m = q @ np.diag([4.0, 1e-14, -1e-20]) @ q.T
        out, w, rank = psd_power(m, -1.0)
        assert rank == 1
        np.testing.assert_allclose(w, [4.0, 1e-14, -1e-20], atol=1e-15)
        np.testing.assert_allclose(out, np.outer(q[:, 0], q[:, 0]) / 4.0, atol=1e-12)

    def test_matches_closed_form_powers(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(4, 4))
        m = a @ a.T + 0.1 * np.eye(4)
        root, _, rank = psd_power(m, 0.5)
        assert rank == 4
        np.testing.assert_allclose(root @ root, m, atol=1e-10)
        inv, _, _ = psd_power(m, -1.0)
        np.testing.assert_allclose(inv @ m, np.eye(4), atol=1e-10)

    def test_zero_matrix_keeps_no_mode(self):
        out, _, rank = psd_power(np.zeros((2, 2)), -0.5)
        assert rank == 0
        assert np.array_equal(out, np.zeros((2, 2)))


def eig_sym_reference(m):
    """``eig_sym`` with its checks and sign fix written out in plain numpy."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ContractViolationError(f"eig_sym needs a square matrix, got {m.shape}")
    scale = max(1.0, float(np.abs(m).max()) if m.size else 1.0)
    if m.size and float(np.abs(m - m.T).max()) > 1e-10 * scale:
        raise ContractViolationError("eig_sym input is not symmetric within 1e-10")
    w, v = np.linalg.eigh((m + m.T) / 2.0)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    if v.size:
        peaks = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
        v *= np.where(peaks < 0, -1.0, 1.0)
    return w, v


def psd_power_reference(m, p):
    """``psd_power`` as it was written before ``np.power(..., where=keep)``."""
    w, v = eig_sym_reference(m)
    clipped = np.maximum(w, 0.0)
    keep = clipped > RANK_TOL * clipped.max(initial=0.0)
    powered = np.zeros_like(clipped)
    powered[keep] = clipped[keep] ** p
    return (v * powered) @ v.T, w, int(keep.sum())


def random_psd(rng, d, rank):
    """A d x d PSD matrix of the given rank (up to rounding), symmetric by construction."""
    a = rng.normal(size=(d, rank)) * rng.uniform(0.1, 10.0, size=rank)
    m = a @ a.T
    return (m + m.T) / 2.0


class TestLeanKernelsMatchTheirReferences:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_eig_sym_and_psd_power_bit_for_bit(self, d):
        rng = np.random.default_rng(100 + d)
        for trial in range(60):
            m = random_psd(rng, d, rank=trial % (d + 1))  # rank 0 (all zero) to d
            w, v = eig_sym(m)
            ref_w, ref_v = eig_sym_reference(m)
            assert w.tobytes() == ref_w.tobytes() and v.tobytes() == ref_v.tobytes()
            for p in (-1.0, -0.5, 0.5):
                out, w, rank = psd_power(m, p)
                ref_out, ref_w, ref_rank = psd_power_reference(m, p)
                assert w.tobytes() == ref_w.tobytes() and rank == ref_rank
                if p < 0:  # the powers capic uses: np.power on both sides
                    assert out.tobytes() == ref_out.tobytes(), (trial, p)
                else:  # ``** 0.5`` is np.sqrt, np.power(x, 0.5) is pow: not the same rounding
                    peak = np.abs(ref_out).max(initial=0.0)
                    np.testing.assert_allclose(out, ref_out, rtol=1e-14, atol=1e-14 * peak)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(3, 3), (2, 3)])
    def test_eig_sym_rejects_non_finite_entries(self, bad, shape):
        m = np.eye(*shape)
        m[1, 0] = bad
        with pytest.raises(ContractViolationError, match="^matrix contains non-finite entries$"):
            eig_sym(m)
        with pytest.raises(ContractViolationError, match="^matrix contains non-finite entries$"):
            psd_power(m, -1.0)

    def test_eig_sym_keeps_its_shape_errors(self):
        with pytest.raises(ContractViolationError, match="must be 2-D"):
            eig_sym(np.ones(3))
        with pytest.raises(ContractViolationError, match="square matrix"):
            eig_sym(np.ones((2, 3)))
        w, v = eig_sym(np.zeros((0, 0)))
        assert w.shape == (0,) and v.shape == (0, 0)


def test_as_matrix_rejects_vectors():
    with pytest.raises(ContractViolationError):
        as_matrix(np.ones(3))
