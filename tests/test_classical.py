import math

import numpy as np
import pytest

from capic.classical import (
    ContingencyTable,
    ca_decompose,
    contingency_from_pmf,
    pics_exact,
    q_matrix,
)
from capic.errors import CapacityError, ContractViolationError
from capic.linalg import svd
from capic.oracles import BscSpec, bsc_joint_pmf


def random_full_support_pmf(rng, rows, cols):
    p = rng.uniform(0.05, 1.0, size=(rows, cols))
    return p / p.sum()


def contingency_from_samples(xs, ys) -> ContingencyTable:
    """The relative frequencies of paired categorical samples, labels sorted.

    The counting reference the tests build tables from samples with.
    """
    xs, ys = list(xs), list(ys)
    x_labels, y_labels = tuple(sorted(set(xs))), tuple(sorted(set(ys)))
    counts = np.zeros((len(x_labels), len(y_labels)))
    for x, y in zip(xs, ys):
        counts[x_labels.index(x), y_labels.index(y)] += 1.0
    return ContingencyTable(counts / counts.sum(), x_labels, y_labels)


def reference_decomposition(t: ContingencyTable):
    """``(q, l_factors, r_factors, scores)`` of ``t`` by out-of-place expressions.

    :func:`q_matrix` and :func:`ca_decompose` work in place and must give
    these bytes.
    """
    px, py = t.marginals_x, t.marginals_y
    expected = np.outer(px, py)
    q = (t.table - expected) / np.sqrt(expected)
    u, s, vt = svd(q)
    d = min(q.shape) - 1
    return q, u[:, :d] / np.sqrt(px)[:, None], vt[:d].T / np.sqrt(py)[:, None], s[:d] ** 2


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestContingencyFromSamples:
    def test_direct_counting(self):
        t = contingency_from_samples(["a", "a", "b"], [0, 1, 1])
        np.testing.assert_allclose(
            t.table, [[1 / 3, 1 / 3], [0.0, 1 / 3]], atol=1e-15
        )
        assert t.x_labels == ("a", "b")
        assert t.y_labels == (0, 1)

    def test_identical_balanced_bits(self):
        t = contingency_from_samples([0, 1, 0, 1], [0, 1, 0, 1])
        np.testing.assert_allclose(t.table, np.diag([0.5, 0.5]), atol=1e-15)

    def test_independent_bits_law_of_large_numbers(self):
        rng = np.random.default_rng(42)
        xs = rng.integers(0, 2, size=1000)
        ys = rng.integers(0, 2, size=1000)
        t = contingency_from_samples(xs.tolist(), ys.tolist())
        assert np.abs(t.table - 0.25).max() < 0.05


class TestContingencyFromPmf:
    def test_uniform(self):
        t = contingency_from_pmf(np.full((2, 2), 0.25))
        np.testing.assert_allclose(t.table, np.full((2, 2), 0.25), atol=1e-15)

    def test_bsc_cells_by_hand(self):
        # p(x, y) = p(x) p(y|x) for a uniform bit through a 0.1 flip
        t = contingency_from_pmf(bsc_joint_pmf(BscSpec(1, 0.1)))
        np.testing.assert_allclose(
            t.table, [[0.45, 0.05], [0.05, 0.45]], atol=1e-12
        )

    def test_product_pmf_is_rank_one(self):
        px = np.array([0.2, 0.3, 0.5])
        py = np.array([0.6, 0.4])
        t = contingency_from_pmf(np.outer(px, py))
        assert np.linalg.matrix_rank(t.table) == 1

    def test_unnormalized_rejected(self):
        with pytest.raises(ContractViolationError):
            contingency_from_pmf(np.full((2, 2), 0.3))

    def test_zero_marginal_dropped_with_warning(self):
        pmf = np.array([[0.5, 0.5], [0.0, 0.0]])
        with pytest.warns(RuntimeWarning):
            t = contingency_from_pmf(pmf, x_labels=("keep", "drop"), y_labels=(0, 1))
        assert t.x_labels == ("keep",)
        assert t.dropped_x == ("drop",)


class TestQMatrix:
    def test_independent_table_gives_zero(self):
        t = contingency_from_pmf(np.outer([0.3, 0.7], [0.4, 0.6]))
        np.testing.assert_allclose(q_matrix(t), 0.0, atol=1e-14)

    def test_diagonal_half_table(self):
        t = contingency_from_pmf(np.diag([0.5, 0.5]))
        q = q_matrix(t)
        np.testing.assert_allclose(q, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)
        s = np.linalg.svd(q, compute_uv=False)
        np.testing.assert_allclose(s, [1.0, 0.0], atol=1e-12)

    def test_bsc_top_singular_value(self):
        t = contingency_from_pmf(bsc_joint_pmf(BscSpec(1, 0.1)))
        s = np.linalg.svd(q_matrix(t), compute_uv=False)
        assert abs(s[0] - 0.8) < 1e-12

    def test_singular_values_bounded_by_one(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            t = contingency_from_pmf(random_full_support_pmf(rng, 5, 4))
            s = np.linalg.svd(q_matrix(t), compute_uv=False)
            assert s[0] <= 1.0 + 1e-9


class TestCaDecompose:
    def test_independence_all_zero_scores(self):
        t = contingency_from_pmf(np.outer([0.3, 0.7], [0.4, 0.6]))
        d = ca_decompose(t)
        np.testing.assert_allclose(d.scores, 0.0, atol=1e-14)

    def test_perfect_dependence(self):
        t = contingency_from_pmf(np.diag([0.5, 0.5]))
        d = ca_decompose(t)
        assert abs(d.scores[0] - 1.0) < 1e-12

    def test_marginal_weighted_orthonormality(self):
        rng = np.random.default_rng(17)
        t = contingency_from_pmf(random_full_support_pmf(rng, 6, 4))
        d = ca_decompose(t)
        dx = np.diag(d.marginals_x)
        dy = np.diag(d.marginals_y)
        np.testing.assert_allclose(
            d.l_factors.T @ dx @ d.l_factors, np.eye(d.d), atol=1e-8
        )
        np.testing.assert_allclose(
            d.r_factors.T @ dy @ d.r_factors, np.eye(d.d), atol=1e-8
        )
        assert abs(d.score_ratios.sum() - 1.0) < 1e-12

    def test_five_bit_bsc_spectrum_multiplicities(self):
        pmf = bsc_joint_pmf(BscSpec(5, 0.1))
        d = ca_decompose(contingency_from_pmf(pmf))
        expected = np.sort(
            np.concatenate([[0.8 ** k] * math.comb(5, k) for k in range(1, 6)])
        )[::-1]
        np.testing.assert_allclose(d.sigmas, expected, atol=1e-10)


class TestInPlaceArithmetic:
    @staticmethod
    def table(kind):
        if kind == "bsc3":
            return contingency_from_pmf(bsc_joint_pmf(BscSpec(3, 0.1)))
        shape = {"square": (6, 6), "tall": (7, 4), "wide": (3, 8), "large": (40, 33),
                 "dropped row": (6, 5)}[kind]
        pmf = random_full_support_pmf(np.random.default_rng(23), *shape)
        if kind != "dropped row":
            return contingency_from_pmf(pmf)
        pmf[2] = 0.0
        with pytest.warns(RuntimeWarning, match="dropping"):
            return contingency_from_pmf(pmf / pmf.sum())

    @pytest.mark.parametrize("kind", ["square", "tall", "wide", "large", "dropped row", "bsc3"])
    def test_same_bytes_as_out_of_place(self, kind):
        t = self.table(kind)
        q, l_factors, r_factors, scores = reference_decomposition(t)
        d = ca_decompose(t)
        assert same_bytes(q_matrix(t), q)
        assert same_bytes(d.l_factors, l_factors)
        assert same_bytes(d.r_factors, r_factors)
        assert same_bytes(d.scores, scores)

    def test_q_matrix_holds_two_tables(self, traced_peak):
        # the difference and the expected table, plus 64 KiB for the
        # marginals; an out-of-place quotient holds a third table
        t = contingency_from_pmf(random_full_support_pmf(np.random.default_rng(5), 512, 512))
        assert traced_peak(q_matrix, t) <= 2 * t.table.nbytes + 64 * 1024


class TestPicsExact:
    def test_independent_zeros(self):
        sig = pics_exact(np.outer([0.5, 0.5], [0.25, 0.25, 0.5]))
        np.testing.assert_allclose(sig, 0.0, atol=1e-12)

    def test_two_by_two_correlation(self):
        rho = 0.37
        pmf = np.array(
            [[(1 + rho) / 4, (1 - rho) / 4], [(1 - rho) / 4, (1 + rho) / 4]]
        )
        sig = pics_exact(pmf)
        np.testing.assert_allclose(sig, [abs(rho)], atol=1e-12)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            pics_exact(np.zeros((1 << 11, 1 << 11)))


class TestInvariants:
    def test_reconstitution_exactness(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            t = contingency_from_pmf(random_full_support_pmf(rng, 5, 4))
            d = ca_decompose(t)
            ratio = 1.0 + (d.l_factors * d.sigmas) @ d.r_factors.T
            rebuilt = ratio * np.outer(d.marginals_x, d.marginals_y)
            np.testing.assert_allclose(rebuilt, t.table, atol=1e-8)

    def test_merging_categories_never_increases_spectrum(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            pmf = random_full_support_pmf(rng, 5, 4)
            merged = np.vstack([pmf[0] + pmf[1], pmf[2:]])
            sig = pics_exact(pmf)
            sig_merged = pics_exact(merged)
            assert np.all(sig_merged <= sig[: sig_merged.size] + 1e-10)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(77)
        pmf = random_full_support_pmf(rng, 4, 3)
        perm = rng.permutation(4)
        base = ca_decompose(contingency_from_pmf(pmf))
        permuted = ca_decompose(contingency_from_pmf(pmf[perm]))
        np.testing.assert_allclose(permuted.scores, base.scores, atol=1e-12)
        np.testing.assert_allclose(
            permuted.l_factors, base.l_factors[perm], atol=1e-9
        )
