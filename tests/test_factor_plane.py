import numpy as np
import pytest

from capic.classical import ca_decompose, contingency_from_pmf, contingency_from_samples
from capic.errors import ContractViolationError, CsvParseError, UnsupportedOperationError
from capic.factor_plane import (
    FactorPlane,
    export_factor_plane,
    interpolate_path,
    plane_from_csv,
    plane_to_csv,
)
from capic.model import CaNnModel
from capic.neural import MlpConfig, MlpParams
from capic.whitening import PrincipalFunctions


def small_decomposition(seed=81):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 1.0, size=(4, 3))
    table = contingency_from_pmf(p / p.sum())
    return table, ca_decompose(table)


class TestExport:
    def test_ca_points_and_ratios(self):
        table, decomp = small_decomposition()
        plane, svg = export_factor_plane(
            decomp, 0, 1, x_labels=table.x_labels, y_labels=table.y_labels
        )
        assert len(plane.x_points) == 4 and len(plane.y_points) == 3
        assert plane.score_ratios == (
            pytest.approx(float(decomp.score_ratios[0])),
            pytest.approx(float(decomp.score_ratios[1])),
        )
        label, ci, cj = plane.x_points[0]
        assert ci == pytest.approx(decomp.sigmas[0] * decomp.l_factors[0, 0])
        assert cj == pytest.approx(decomp.sigmas[1] * decomp.l_factors[0, 1])

    def test_svg_structure(self):
        table, decomp = small_decomposition()
        _, svg = export_factor_plane(
            decomp, 0, 1, x_labels=table.x_labels, y_labels=table.y_labels
        )
        assert svg.startswith("<svg ")
        assert "stroke-dasharray" in svg  # dashed zero axes
        assert "score ratio" in svg
        assert svg.count('<circle class="xpt"') == 4
        assert svg.count('<path class="ypt"') == 3

    def test_svg_deterministic(self):
        table, decomp = small_decomposition()
        a = export_factor_plane(decomp, 0, 1)[1]
        b = export_factor_plane(decomp, 0, 1)[1]
        assert a == b

    def test_same_axis_rejected(self):
        _, decomp = small_decomposition()
        with pytest.raises(ContractViolationError):
            export_factor_plane(decomp, 1, 1)

    def test_axis_out_of_range(self):
        _, decomp = small_decomposition()
        with pytest.raises(ContractViolationError):
            export_factor_plane(decomp, 0, 5)

    def test_independent_samples_fall_near_origin(self):
        # categorical samples of two independent uniform trits: all
        # principal coordinates should sit within sampling noise of the
        # origin
        rng = np.random.default_rng(83)
        n = 10_000
        xs = rng.integers(0, 3, size=n).tolist()
        ys = rng.integers(0, 3, size=n).tolist()
        decomp = ca_decompose(contingency_from_samples(xs, ys))
        plane, _ = export_factor_plane(decomp, 0, 1)
        bound = 3.0 / np.sqrt(n)
        for _, ci, cj in plane.x_points + plane.y_points:
            assert abs(ci) < bound and abs(cj) < bound

    def test_principal_functions_source_with_category_points(self):
        rng = np.random.default_rng(85)
        f = rng.normal(size=(3, 40))
        g = rng.normal(size=(3, 40))
        pf = PrincipalFunctions(
            f=f, g=g,
            pic_diagonal=np.array([0.9, 0.5, 0.1]),
            raw_diagonal=np.array([0.9, 0.5, 0.1]),
        )
        cats = rng.normal(size=(3, 4))
        plane, svg = export_factor_plane(
            pf, 0, 1, y_points=cats, y_labels=["a", "b", "c", "d"]
        )
        assert len(plane.x_points) == 40
        assert len(plane.y_points) == 4
        assert plane.y_points[0][1] == pytest.approx(0.9 * cats[0, 0])


class TestCsvTwin:
    def test_round_trip_identity(self):
        table, decomp = small_decomposition()
        plane, _ = export_factor_plane(
            decomp, 0, 1, x_labels=table.x_labels, y_labels=table.y_labels
        )
        assert plane_from_csv(plane_to_csv(plane)) == plane

    def test_round_trip_with_awkward_labels(self):
        _, decomp = small_decomposition()
        labels = ['with,comma', 'with "quote"', "with\nnewline", "plain"]
        # str.splitlines() breaks at these, the csv module does not
        breaks = ["form\x0cfeed", "line\u2028separator", "para\u2029graph"]
        plane, _ = export_factor_plane(decomp, 0, 1, x_labels=labels, y_labels=breaks)
        assert plane_from_csv(plane_to_csv(plane)) == plane

    def test_wrong_field_count_names_line(self):
        text = plane_to_csv(FactorPlane(0, 1, [("a", 1.0, 2.0)], [("b", 3.0, 4.0)], (0.5, 0.25)))
        with pytest.raises(CsvParseError, match="line 6") as info:
            plane_from_csv(text.replace("y,b,3.0,4.0", "y,b,3.0,4.0,5.0"))
        assert info.value.line == 6

    def test_carriage_return_label_is_a_parse_error(self):
        # the writer leaves a bare \r unquoted, so the label cannot come back
        plane = FactorPlane(0, 1, [("a\rb", 1.0, 2.0)], [], (0.5, 0.25))
        with pytest.raises(CsvParseError, match="line 5"):
            plane_from_csv(plane_to_csv(plane))

    def test_text_bytes(self):
        plane = FactorPlane(
            axis_i=0, axis_j=2,
            x_points=[("a", 0.5, -0.25), ("with,comma", 1e-17, 3.0)],
            y_points=[('say "hi"', -1.5, 0.1), ("two\nlines", 0.0, 2.5e16)],
            score_ratios=(0.75, 0.125),
        )
        assert plane_to_csv(plane) == (
            "# factor-plane v1\n"
            "axes,0,2\n"
            "score_ratios,0.75,0.125\n"
            "role,label,coord_i,coord_j\n"
            "x,a,0.5,-0.25\n"
            'x,"with,comma",1e-17,3.0\n'
            'y,"say ""hi""",-1.5,0.1\n'
            'y,"two\nlines",0.0,2.5e+16\n'
        )
        assert plane_from_csv(plane_to_csv(plane)) == plane


def affine_model(x_kind):
    """A model whose f net is the map x -> (x0 + x1, x0 - x1), so paths are easy to predict."""
    f = MlpParams(
        MlpConfig((2, 2, 2), activation="identity"),
        [np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]])],
        [np.zeros(2), np.zeros(2)],
    )
    return CaNnModel(f, f, np.ones(2), np.ones(2), 0.0, 0.0, {"x_kind": x_kind})


class TestInterpolatePath:
    def test_endpoints_only(self):
        model = affine_model("continuous")
        path = interpolate_path(model, [0.0, 0.0], [1.0, 1.0], steps=2)
        np.testing.assert_allclose(path, [[0.0, 0.0], [2.0, 0.0]])

    def test_degenerate_single_point(self):
        model = affine_model("continuous")
        path = interpolate_path(model, [1.0, 2.0], [1.0, 2.0], steps=7)
        assert np.all(path == path[0])

    def test_categorical_rejected(self):
        model = affine_model("onehot")
        with pytest.raises(UnsupportedOperationError):
            interpolate_path(model, [0.0], [1.0], steps=3)

    def test_steps_minimum(self):
        model = affine_model("continuous")
        with pytest.raises(ContractViolationError):
            interpolate_path(model, [0.0], [1.0], steps=1)
