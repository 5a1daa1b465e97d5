import ast
from pathlib import Path

import numpy as np
import pytest

from capic import factor_plane as fp
from capic import neural
from capic.classical import ca_decompose, contingency_from_pmf
from capic.errors import ContractViolationError, CsvParseError, UnsupportedOperationError
from capic.factor_plane import (
    FactorPlane,
    export_factor_plane,
    interpolate_path,
    plane_from_csv,
    plane_to_csv,
    inertia_shares,
    render_svg,
)
from capic.linalg import distinct_rows
from capic.model import CaNnModel
from capic.neural import MlpConfig, MlpParams, forward
from capic.whitening import PrincipalFunctions

from test_classical import contingency_from_samples, same_bytes
from test_fileio import reference_csv_text


def reference_points(matrix_rows, scale_i, scale_j, i, j, labels):
    """A plane's points by a scalar product per coordinate, the rule ``_points`` vectorizes."""
    if labels is None:
        labels = [str(k) for k in range(matrix_rows.shape[0])]
    return [
        (str(label), float(scale_i * row[i]), float(scale_j * row[j]))
        for label, row in zip(labels, matrix_rows)
    ]


def reference_ratios(diag, i, j):
    """Axes ``i`` and ``j``'s inertia shares, one pair at a time: the rule ``inertia_shares``
    vectorizes."""
    weights = np.square(np.asarray(diag, dtype=np.float64))
    total = float(weights.sum())
    if total <= 0:
        return (0.0, 0.0)
    return (float(weights[i] / total), float(weights[j] / total))


def export_decomposition(decomp, i, j, x_labels=None, y_labels=None):
    """The ``(i, j)`` plane of a classical decomposition: its categories as the point sets."""
    return export_factor_plane(i, j, (x_labels, decomp.l_factors), (y_labels, decomp.r_factors),
                               decomp.sigmas, decomp.score_ratios)


def reference_plane_csv(plane):
    """The per-point plane writer: one :func:`reference_csv_text` row per point."""
    rows = [
        ["axes", plane.axis_i, plane.axis_j],
        ["score_ratios", *plane.score_ratios],
        ["role", "label", "coord_i", "coord_j"],
    ]
    for role, points in (("x", plane.x_points), ("y", plane.y_points)):
        rows += [[role, *point] for point in points]
    return reference_csv_text([fp.PLANE_CSV_HEADER], rows)


def reference_render_svg(plane):
    """The per-point SVG writer: every marker and label formatted for each point."""
    size, margin = fp.SVG_SIZE, fp.SVG_MARGIN
    coords = [(ci, cj) for _, ci, cj in plane.x_points + plane.y_points]
    extent = max((max(abs(a), abs(b)) for a, b in coords), default=1.0)
    extent = max(extent * 1.12, 1e-9)
    span = size - 2 * margin

    def px(value):
        return margin + (value + extent) / (2 * extent) * span

    def py(value):
        return size - margin - (value + extent) / (2 * extent) * span

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f"<style>{fp._SVG_STYLE}</style>",
        f'<rect class="frame" x="{margin}" y="{margin}" width="{span}" height="{span}"/>',
        f'<line class="axis" x1="{px(-extent):.2f}" y1="{py(0):.2f}" '
        f'x2="{px(extent):.2f}" y2="{py(0):.2f}"/>',
        f'<line class="axis" x1="{px(0):.2f}" y1="{py(-extent):.2f}" '
        f'x2="{px(0):.2f}" y2="{py(extent):.2f}"/>',
        f'<text class="lbl" x="{size / 2:.1f}" y="{size - 12}" text-anchor="middle">'
        f"component {plane.axis_i + 1} (score ratio {plane.score_ratios[0]:.4f})</text>",
        f'<text class="lbl" x="14" y="{size / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {size / 2:.1f})">'
        f"component {plane.axis_j + 1} (score ratio {plane.score_ratios[1]:.4f})</text>",
    ]
    show_x_labels = len(plane.x_points) <= fp.SVG_MAX_X_LABELS
    for label, ci, cj in plane.x_points:
        out.append(f'<circle class="xpt" cx="{px(ci):.2f}" cy="{py(cj):.2f}" r="3"/>')
        if show_x_labels:
            out.append(
                f'<text class="lbl" x="{px(ci) + 4:.2f}" y="{py(cj) - 4:.2f}">'
                f"{fp._esc(label)}</text>"
            )
    for label, ci, cj in plane.y_points:
        cx, cy = px(ci), py(cj)
        out.append(
            f'<path class="ypt" d="M {cx:.2f} {cy - 4:.2f} L {cx + 4:.2f} {cy:.2f} '
            f'L {cx:.2f} {cy + 4:.2f} L {cx - 4:.2f} {cy:.2f} Z"/>'
        )
        out.append(f'<text class="lbl" x="{cx + 5:.2f}" y="{cy + 3:.2f}">{fp._esc(label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def small_decomposition(seed=81):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 1.0, size=(4, 3))
    table = contingency_from_pmf(p / p.sum())
    return table, ca_decompose(table)


class TestExport:
    def test_ca_points_and_ratios(self):
        table, decomp = small_decomposition()
        plane, svg = export_decomposition(
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
        _, svg = export_decomposition(
            decomp, 0, 1, x_labels=table.x_labels, y_labels=table.y_labels
        )
        assert svg.startswith("<svg ")
        assert "stroke-dasharray" in svg  # dashed zero axes
        assert "score ratio" in svg
        assert svg.count('<circle class="xpt"') == 4
        assert svg.count('<path class="ypt"') == 3

    def test_svg_deterministic(self):
        table, decomp = small_decomposition()
        a = export_decomposition(decomp, 0, 1)[1]
        b = export_decomposition(decomp, 0, 1)[1]
        assert a == b

    def test_same_axis_rejected(self):
        _, decomp = small_decomposition()
        with pytest.raises(ContractViolationError):
            export_decomposition(decomp, 1, 1)

    def test_axis_out_of_range(self):
        _, decomp = small_decomposition()
        with pytest.raises(ContractViolationError):
            export_decomposition(decomp, 0, 5)

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_label_count_must_match_points(self, side):
        table, decomp = small_decomposition()  # 4 x points, 3 y points
        labels = {"x_labels": table.x_labels, "y_labels": table.y_labels}
        labels[f"{side}_labels"] = ["a"]
        points = {"x": 4, "y": 3}[side]
        with pytest.raises(ContractViolationError, match=f"{side} has 1 labels for {points} points"):
            export_decomposition(decomp, 0, 1, **labels)

    def test_principal_functions_label_count_must_match(self):
        pf = PrincipalFunctions(f=np.eye(2), g=np.eye(2), pic_diagonal=np.ones(2),
                                raw_diagonal=np.ones(2))
        with pytest.raises(ContractViolationError, match="y has 3 labels for 4 points"):
            export_factor_plane(0, 1, (None, pf.f.T), (["a", "b", "c"], np.ones((4, 2))),
                                pf.pic_diagonal, inertia_shares(pf.pic_diagonal))

    def test_independent_samples_fall_near_origin(self):
        # categorical samples of two independent uniform trits: all
        # principal coordinates should sit within sampling noise of the
        # origin
        rng = np.random.default_rng(83)
        n = 10_000
        xs = rng.integers(0, 3, size=n).tolist()
        ys = rng.integers(0, 3, size=n).tolist()
        decomp = ca_decompose(contingency_from_samples(xs, ys))
        plane, _ = export_decomposition(decomp, 0, 1)
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
            0, 1, (None, pf.f.T), (["a", "b", "c", "d"], cats.T), pf.pic_diagonal,
            inertia_shares(pf.pic_diagonal)
        )
        assert len(plane.x_points) == 40
        assert len(plane.y_points) == 4
        assert plane.y_points[0][1] == pytest.approx(0.9 * cats[0, 0])


class TestInertiaShares:
    @pytest.mark.parametrize("diag", [
        *(np.random.default_rng(seed).uniform(0.0, 1.0, size=5) for seed in range(5)),
        np.array([0.9, -0.4, 0.3, -1.0]),
        np.zeros(3),
    ])
    def test_shares_are_the_per_pair_reference(self, diag):
        shares = inertia_shares(diag)
        for i in range(diag.size):
            for j in range(diag.size):
                if i != j:
                    assert same_bytes(shares[[i, j]], np.array(reference_ratios(diag, i, j)))
        if not diag.any():
            assert shares.tolist() == [0.0] * diag.size


def test_factor_plane_does_not_know_the_decompositions():
    # A plane is built from point sets: the module imports neither
    # decomposition and dispatches on no type.
    tree = ast.parse(Path(fp.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "neural" in imported  # the rule sees the module's own relative imports
    assert not imported & {"classical", "whitening", "capic.classical", "capic.whitening"}
    calls = [node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert "render_svg" in calls and "isinstance" not in calls


class TestCsvTwin:
    def test_round_trip_identity(self):
        table, decomp = small_decomposition()
        plane, _ = export_decomposition(
            decomp, 0, 1, x_labels=table.x_labels, y_labels=table.y_labels
        )
        assert plane_from_csv(plane_to_csv(plane)) == plane

    def test_round_trip_with_awkward_labels(self):
        _, decomp = small_decomposition()
        labels = ['with,comma', 'with "quote"', "with\nnewline", "plain"]
        # str.splitlines() breaks at these, the csv module does not
        breaks = ["form\x0cfeed", "line\u2028separator", "para\u2029graph"]
        plane, _ = export_decomposition(decomp, 0, 1, x_labels=labels, y_labels=breaks)
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


def sample_plane(n_x, n_positions, seed=87, y_points=None):
    """A plane of ``n_x`` x points at ``n_positions`` repeated positions, as samples give."""
    rng = np.random.default_rng(seed)
    positions = rng.normal(size=(n_positions, 2)).tolist()
    x = [(f"s<{k}>&", *positions[k % n_positions]) for k in range(n_x)]
    y = [(f"c{k}", *positions[k % n_positions]) for k in range(n_positions)]
    return FactorPlane(0, 1, x, y if y_points is None else y_points, (0.6, 0.3))


SIGNED_ZEROS = [("a", 0.0, 0.0), ("b", -0.0, 0.0), ("c", 0.0, -0.0), ("d", 0.0, 0.0)]
AWKWARD = [("", 0.5, -0.5), ("with,comma", 1.0, 2.0), ('with "quote"', 0.5, -0.5),
           ("with\nnewline", 1e-17, 2.5e16), ("with\rreturn", 0.5, -0.5), ("a&b<c>", 1.0, 2.0)]
PLANES = {
    "50 x points, labelled": sample_plane(50, 7),
    "51 x points, unlabelled": sample_plane(51, 7),
    "15000 x points at 32 positions": sample_plane(15000, 32),
    "every position distinct": sample_plane(200, 200),
    "signed zeros": FactorPlane(0, 1, SIGNED_ZEROS, SIGNED_ZEROS[::-1], (0.5, 0.5)),
    "awkward labels": FactorPlane(1, 3, AWKWARD, AWKWARD[::-1], (0.25, 0.125)),
    "one point": FactorPlane(0, 1, [("only", 0.3, -0.7)], [], (1.0, 0.0)),
    "no x points": FactorPlane(0, 1, [], [("y", 0.3, 0.2)], (0.5, 0.5)),
    "no points": FactorPlane(0, 1, [], [], (0.0, 0.0)),
    "nan first": FactorPlane(0, 1, [("n", float("nan"), 1.0), ("m", 2.0, 0.5)], [], (0.5, 0.5)),
    "nan later": FactorPlane(0, 1, [("m", 2.0, 0.5), ("n", 0.1, float("nan")),
                                    ("k", 3.0, 0.5)], [("i", float("inf"), 0.0)], (0.5, 0.5)),
}


class TestPointsOnceEachPosition:
    """The plane writers give the bytes of the per-point references above."""

    @pytest.mark.parametrize("name", PLANES)
    def test_svg_bytes(self, name):
        assert render_svg(PLANES[name]) == reference_render_svg(PLANES[name])

    @pytest.mark.parametrize("name", PLANES)
    def test_csv_bytes(self, name):
        assert plane_to_csv(PLANES[name]) == reference_plane_csv(PLANES[name])

    @pytest.mark.parametrize("name", PLANES)
    def test_coded_plane_bytes(self, name):
        # One x point per distinct position, as a plane of a coded side has:
        # the per-point bytes of those points, in the frame and axes of the
        # plane of every point (its positions are the same).
        plane = PLANES[name]
        coords = np.array([(ci, cj) for _, ci, cj in plane.x_points]).reshape(-1, 2)
        first = np.sort(distinct_rows(coords)[0]).tolist()
        coded = FactorPlane(plane.axis_i, plane.axis_j, [plane.x_points[k] for k in first],
                            plane.y_points, plane.score_ratios)
        svg = render_svg(coded)
        assert svg == reference_render_svg(coded)
        assert plane_to_csv(coded) == reference_plane_csv(coded)
        assert svg.splitlines()[:7] == render_svg(plane).splitlines()[:7]

    def test_points_are_the_scalar_products(self):
        table, decomp = small_decomposition()
        plane, _ = export_decomposition(decomp, 1, 0, x_labels=table.x_labels)
        sig = decomp.sigmas
        assert plane.x_points == reference_points(
            decomp.l_factors, sig[1], sig[0], 1, 0, table.x_labels
        )
        assert plane.y_points == reference_points(decomp.r_factors, sig[1], sig[0], 1, 0, None)
        for _, ci, cj in plane.x_points + plane.y_points:
            assert type(ci) is float and type(cj) is float


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

    def test_more_steps_than_a_block_are_one_forward_pass(self):
        model = affine_model("continuous")
        steps = 3 * neural._BLOCK + 5
        path = interpolate_path(model, [0.5, -1.0], [2.0, 3.0], steps=steps)
        t = np.linspace(0.0, 1.0, steps)
        batch = np.array([[0.5], [-1.0]]) * (1.0 - t) + np.array([[2.0], [3.0]]) * t
        assert np.array_equal(path, forward(model.f_params, batch)[0].T)

    def test_categorical_rejected(self):
        model = affine_model("onehot")
        with pytest.raises(UnsupportedOperationError):
            interpolate_path(model, [0.0], [1.0], steps=3)

    def test_steps_minimum(self):
        model = affine_model("continuous")
        with pytest.raises(ContractViolationError):
            interpolate_path(model, [0.0], [1.0], steps=1)
