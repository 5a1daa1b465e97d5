import numpy as np
import pytest

from capic.classical import ca_decompose, contingency_from_pmf
from capic.errors import ContractViolationError
from capic.reconstitution import (
    ReconstitutionModel,
    classify,
    density_ratio,
    from_table,
)


def full_support_pmf(rng, rows, cols):
    p = rng.uniform(0.05, 1.0, size=(rows, cols))
    return p / p.sum()


def truncated_model(table, decomp, k):
    xi = {l: i for i, l in enumerate(table.x_labels)}
    return ReconstitutionModel(
        pic_sqrt=decomp.sigmas[:k],
        f_eval=lambda x: decomp.l_factors[xi[x], :k],
        g_points=decomp.r_factors[:, :k],
        labels=table.y_labels,
        prior_y=decomp.marginals_y,
    )


def weighted_reconstruction_error(table, model):
    px = table.marginals_x
    py = table.marginals_y
    rebuilt = np.array(
        [
            [density_ratio(model, x, y) * px[i] * py[j] for j, y in enumerate(table.y_labels)]
            for i, x in enumerate(table.x_labels)
        ]
    )
    diff = (table.table - rebuilt) / np.sqrt(np.outer(px, py))
    return float(np.linalg.norm(diff))


class TestDensityRatio:
    def test_independent_model_ratio_one(self):
        m = ReconstitutionModel(
            pic_sqrt=np.zeros(2),
            f_eval=lambda x: np.array([x, -x], dtype=float),
            g_points=np.array([[0.0, 0.0], [1.0, 1.0]]),
            labels=(0, 1),
            prior_y=np.array([0.5, 0.5]),
        )
        for x in (-1.0, 0.0, 2.5):
            for y in (0, 1):
                assert density_ratio(m, x, y) == 1.0

    def test_exact_reconstruction_three_by_three(self):
        rng = np.random.default_rng(61)
        table = contingency_from_pmf(full_support_pmf(rng, 3, 3))
        model = from_table(table)
        px = table.marginals_x
        py = table.marginals_y
        for i, x in enumerate(table.x_labels):
            for j, y in enumerate(table.y_labels):
                rebuilt = density_ratio(model, x, y) * px[i] * py[j]
                assert abs(rebuilt - table.table[i, j]) < 1e-8

    def test_truncation_error_matches_svd_tail(self):
        rng = np.random.default_rng(67)
        table = contingency_from_pmf(full_support_pmf(rng, 3, 3))
        decomp = ca_decompose(table)
        model = truncated_model(table, decomp, 1)
        err = weighted_reconstruction_error(table, model)
        expected = float(np.sqrt(decomp.scores[1:].sum()))
        assert err == pytest.approx(expected, abs=1e-10)

    def test_adding_components_never_hurts(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            table = contingency_from_pmf(full_support_pmf(rng, 4, 4))
            decomp = ca_decompose(table)
            errors = [
                weighted_reconstruction_error(table, truncated_model(table, decomp, k))
                for k in range(decomp.d + 1)
            ]
            assert all(a >= b - 1e-10 for a, b in zip(errors, errors[1:]))


class TestClassify:
    def test_zero_components_returns_prior_argmax(self):
        m = ReconstitutionModel(
            pic_sqrt=np.zeros(1),
            f_eval=lambda x: np.zeros(1),
            g_points=np.zeros((3, 1)),
            labels=("a", "b", "c"),
            prior_y=np.array([0.2, 0.5, 0.3]),
        )
        label, scores = classify(m, 0.0)
        assert label == "b"
        np.testing.assert_allclose(scores, [0.2, 0.5, 0.3])

    def test_tie_breaks_to_lowest_index(self):
        m = ReconstitutionModel(
            pic_sqrt=np.zeros(1),
            f_eval=lambda x: np.zeros(1),
            g_points=np.zeros((2, 1)),
            labels=("a", "b"),
            prior_y=np.array([0.5, 0.5]),
        )
        assert classify(m, 0.0)[0] == "a"

    def test_exact_table_classifier_is_bayes(self):
        rng = np.random.default_rng(73)
        table = contingency_from_pmf(full_support_pmf(rng, 4, 3))
        model = from_table(table)
        posterior = table.table / table.table.sum(axis=1, keepdims=True)
        for i, x in enumerate(table.x_labels):
            label, scores = classify(model, x)
            assert label == table.y_labels[int(np.argmax(posterior[i]))]
            np.testing.assert_allclose(
                scores / scores.sum(), posterior[i], atol=1e-10
            )

    def test_negative_ratios_floored(self):
        m = ReconstitutionModel(
            pic_sqrt=np.array([10.0]),
            f_eval=lambda x: np.array([x]),
            g_points=np.array([[-1.0], [1.0]]),
            labels=("neg", "pos"),
            prior_y=np.array([0.5, 0.5]),
        )
        label, scores = classify(m, 1.0)
        assert label == "pos"
        assert scores[0] == pytest.approx(0.5 * 1e-12)

    def test_scores_are_prior_times_density_ratio(self):
        rng = np.random.default_rng(79)
        table = contingency_from_pmf(full_support_pmf(rng, 4, 3))
        model = from_table(table)
        for x in table.x_labels:
            _, scores = classify(model, x)
            for k, y in enumerate(table.y_labels):
                assert scores[k] / model.prior_y[k] == pytest.approx(
                    density_ratio(model, x, y), rel=1e-12
                )


def test_g_points_shape_checked():
    with pytest.raises(ContractViolationError, match="g_points"):
        ReconstitutionModel(
            pic_sqrt=np.ones(2),
            f_eval=lambda x: np.zeros(2),
            g_points=np.zeros((2, 3)),
            labels=("a", "b"),
            prior_y=np.array([0.5, 0.5]),
        )


class TestUnknownLabels:
    def model(self):
        table = contingency_from_pmf(np.array([[0.3, 0.2], [0.1, 0.4]]), ("a", "b"), ("u", "v"))
        return from_table(table)

    def test_unknown_y_label_names_it(self):
        with pytest.raises(ContractViolationError, match="'nope'"):
            density_ratio(self.model(), "a", "nope")

    def test_unknown_x_label_names_it(self):
        m = self.model()
        with pytest.raises(ContractViolationError, match="'nope'"):
            density_ratio(m, "nope", "u")
        with pytest.raises(ContractViolationError, match="'nope'"):
            classify(m, "nope")
