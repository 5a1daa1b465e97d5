import math

import numpy as np
import pytest

from capic.classical import MAX_EXACT_CELLS, pics_exact
from capic.errors import CapacityError, ContractViolationError, NotPsdError
from capic.oracles import (
    MAX_PMF_BITS,
    BscSpec,
    GaussianPairSpec,
    bsc_joint_pmf,
    bsc_sample,
    bsc_spectrum_uniform,
    gaussian_pair_sample,
    gaussian_reference_values,
    hermite,
    multimodal_gaussian_sample,
    spectrum_to_vector,
)


class TestBscSpectrum:
    def test_five_bits_delta_point_one(self):
        spectrum = dict(bsc_spectrum_uniform(5, 0.1))
        assert spectrum[0.8 ** 1] == 5
        assert spectrum[0.8 ** 2] == 10
        assert spectrum[0.8 ** 3] == 10
        assert spectrum[0.8 ** 4] == 5
        assert spectrum[0.8 ** 5] == 1

    def test_pure_noise_all_zero(self):
        values = spectrum_to_vector(bsc_spectrum_uniform(4, 0.5))
        np.testing.assert_allclose(values, 0.0, atol=1e-15)

    def test_identity_channel_all_one(self):
        values = spectrum_to_vector(bsc_spectrum_uniform(4, 0.0))
        np.testing.assert_allclose(values, 1.0, atol=1e-15)

    def test_closed_form_matches_brute_force(self):
        for n_bits in (1, 2, 3):
            for delta in (0.0, 0.1, 0.3):
                exact = pics_exact(bsc_joint_pmf(BscSpec(n_bits, delta)))
                closed = spectrum_to_vector(bsc_spectrum_uniform(n_bits, delta))
                np.testing.assert_allclose(exact, closed, atol=1e-10)


class TestBscJointPmf:
    def test_single_bit_by_hand(self):
        np.testing.assert_allclose(
            bsc_joint_pmf(BscSpec(1, 0.1)), [[0.45, 0.05], [0.05, 0.45]], atol=1e-15
        )

    def test_noiseless_is_diagonal(self):
        p = 0.3
        np.testing.assert_allclose(
            bsc_joint_pmf(BscSpec(1, 0.0, p=p)), np.diag([1 - p, p]), atol=1e-15
        )

    def test_two_bits_sigma_multiset(self):
        sig = pics_exact(bsc_joint_pmf(BscSpec(2, 0.1)))
        np.testing.assert_allclose(sig, [0.8, 0.8, 0.64], atol=1e-12)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            bsc_joint_pmf(BscSpec(13, 0.1))

    def test_cap_matches_exact_oracle_cap(self):
        # Every pmf that builds is one pics_exact accepts, and no larger.
        assert 4 ** MAX_PMF_BITS <= MAX_EXACT_CELLS < 4 ** (MAX_PMF_BITS + 1)
        with pytest.raises(CapacityError, match="n_bits=11"):
            bsc_joint_pmf(BscSpec(11, 0.1))


class TestBscSample:
    def test_noiseless_copies_input(self):
        ds = bsc_sample(BscSpec(4, 0.0), 200, seed=3)
        assert np.array_equal(ds.x, ds.y)

    def test_flip_rate(self):
        ds = bsc_sample(BscSpec(5, 0.1), 100_000, seed=5)
        rate = float(np.mean(ds.x != ds.y))
        assert abs(rate - 0.1) < 0.01

    def test_determinism(self):
        a = bsc_sample(BscSpec(3, 0.2), 500, seed=9)
        b = bsc_sample(BscSpec(3, 0.2), 500, seed=9)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


class TestHermite:
    def test_degree_zero_is_one(self):
        for r in (0.5, 1.0, 3.0):
            assert hermite(0, r, 1.7) == 1.0

    def test_degree_one_unit_variance(self):
        x = np.linspace(-3, 3, 11)
        np.testing.assert_allclose(hermite(1, 1.0, x), x, atol=1e-15)

    def test_degree_two_spot_value(self):
        assert hermite(2, 1.0, 2.0) == pytest.approx(3.0 / math.sqrt(2.0), abs=1e-14)

    def test_matches_explicit_low_degree_polynomials(self):
        # probabilists' polynomials: 1, u, u^2-1, u^3-3u, u^4-6u^2+3
        x = np.linspace(-2.5, 2.5, 21)
        for r in (1.0, 2.0):
            u = x / math.sqrt(r)
            explicit = [
                np.ones_like(u), u, u ** 2 - 1, u ** 3 - 3 * u, u ** 4 - 6 * u ** 2 + 3
            ]
            for i, poly in enumerate(explicit):
                np.testing.assert_allclose(
                    hermite(i, r, x), poly / math.sqrt(math.factorial(i)), atol=1e-12
                )

    def test_orthonormality_monte_carlo(self):
        rng = np.random.default_rng(11)
        r = 1.6
        x = rng.normal(0.0, math.sqrt(r), size=1_000_000)
        values = [hermite(i, r, x) for i in range(5)]
        for i in range(5):
            for j in range(5):
                inner = float(np.mean(values[i] * values[j]))
                assert abs(inner - (1.0 if i == j else 0.0)) < 0.02

    def test_degree_cap(self):
        with pytest.raises(ContractViolationError):
            hermite(21, 1.0, 0.0)


class TestGaussianPair:
    def test_sample_moments(self):
        spec = GaussianPairSpec(sigma1=2.0, sigma2=0.5, n_samples=100_000, seed=13)
        ds = gaussian_pair_sample(spec)
        x = ds.x[0]
        y = ds.y[0]
        assert abs(x.var() - 2.0) / 2.0 < 0.02
        cov = float(np.mean(x * y) - x.mean() * y.mean())
        assert abs(cov - 2.0) / 2.0 < 0.02

    def test_determinism(self):
        spec = GaussianPairSpec(1.0, 1.0, 100, seed=17)
        assert np.array_equal(gaussian_pair_sample(spec).x, gaussian_pair_sample(spec).x)


class TestGaussianReferenceValues:
    def test_closed_form_verified_by_monte_carlo(self):
        # the load-bearing check: the i-th value must equal the population
        # inner product E[H_i(X; s1) H_i(Y; s1+s2)] of the two Hermite bases
        s1, s2 = 1.0, 1.0
        ds = gaussian_pair_sample(GaussianPairSpec(s1, s2, 1_000_000, seed=19))
        x, y = ds.x[0], ds.y[0]
        closed = gaussian_reference_values(s1, s2, 4)
        for i in range(1, 5):
            mc = float(np.mean(hermite(i, s1, x) * hermite(i, s1 + s2, y)))
            assert abs(mc - closed[i - 1]) < 0.01

    def test_unit_variances_values(self):
        np.testing.assert_allclose(
            gaussian_reference_values(1.0, 1.0, 4),
            [2 ** -0.5, 0.5, 2 ** -1.5, 0.25],
            atol=1e-12,
        )

    def test_reported_empirical_row_is_close(self):
        # independently reported estimates for the same setup; they are
        # finite-sample numbers (third entry deviates by 0.056 from the
        # verified closed form), so only a loose agreement is expected
        reported = np.array([0.6977, 0.4675, 0.2979, 0.2113])
        closed = gaussian_reference_values(1.0, 1.0, 4)
        assert np.max(np.abs(reported - closed)) < 0.06

    def test_noiseless_limit(self):
        np.testing.assert_allclose(
            gaussian_reference_values(1.0, 1e-12, 3), 1.0, atol=1e-9
        )

    def test_no_signal_limit(self):
        np.testing.assert_allclose(gaussian_reference_values(0.0, 1.0, 3), 0.0, atol=0)


class TestMultimodal:
    APPENDIX_COV = [[1.0, 0.7], [0.7, 1.0]]

    def test_mode_means(self):
        ds = multimodal_gaussian_sample(
            mu0=[5.0, 5.0], mu1=[-5.0, -5.0], cov=self.APPENDIX_COV,
            p_mode=0.5, n=10_000, seed=23,
        )
        modes = ds.provenance["modes"]
        for mode, mean in ((0, 5.0), (1, -5.0)):
            sel = modes == mode
            assert abs(ds.x[0, sel].mean() - mean) < 0.1
            assert abs(ds.y[0, sel].mean() - mean) < 0.1

    def test_single_mode_when_p_zero(self):
        ds = multimodal_gaussian_sample(
            mu0=[2.0, -1.0], mu1=[-9.0, 9.0], cov=self.APPENDIX_COV,
            p_mode=0.0, n=5_000, seed=29,
        )
        assert abs(ds.x[0].mean() - 2.0) < 0.1
        assert abs(ds.y[0].mean() + 1.0) < 0.1

    def test_non_pd_covariance_rejected(self):
        with pytest.raises(NotPsdError):
            multimodal_gaussian_sample(
                mu0=[0, 0], mu1=[1, 1], cov=[[1.0, 2.0], [2.0, 1.0]],
                p_mode=0.5, n=10, seed=1,
            )

    def test_determinism(self):
        kwargs = dict(
            mu0=[5.0, 5.0], mu1=[-5.0, -5.0], cov=self.APPENDIX_COV,
            p_mode=0.5, n=100, seed=31,
        )
        a = multimodal_gaussian_sample(**kwargs)
        b = multimodal_gaussian_sample(**kwargs)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
