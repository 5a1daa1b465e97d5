"""Factor-plane construction, SVG rendering, and feature interpolation.

A factor plane plots two components of two point sets, one per
variable, in principal coordinates: each component scaled by its weight
(a singular value of classical CA, a component correlation of CA-NN),
so independent data collapses to the origin.  The SVG output is plain
deterministic text: same inputs, same bytes.

The module knows neither decomposition: :mod:`capic.experiment` hands
it the point sets, weights and inertia shares, one point per category
of a classical decomposition and, for a trained model, one per sample
or per distinct value of a discrete side (see :mod:`capic.datasets`).
Both writers work point by point.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ContractViolationError, CsvParseError, UnsupportedOperationError
from .fileio import csv_records, csv_text
from .neural import encode

PLANE_CSV_HEADER = "# factor-plane v1"

#: SVG canvas side and frame margin, in pixels.
SVG_SIZE = 640
SVG_MARGIN = 46
#: Planes with more x points than this draw them without labels.
SVG_MAX_X_LABELS = 50


@dataclass
class FactorPlane:
    """Two components of both variables' points."""

    axis_i: int
    axis_j: int
    x_points: list  # (label, coord_i, coord_j)
    y_points: list
    score_ratios: tuple  # share of total inertia on each axis


def inertia_shares(weights) -> np.ndarray:
    """Each component's inertia share ``w**2 / sum(w**2)``; zeros when that sum is not positive."""
    squares = np.square(np.asarray(weights, dtype=np.float64))
    total = float(squares.sum())
    return np.zeros_like(squares) if total <= 0 else squares / total


def _points(side, labels, coords, scales, axes):
    if labels is None:
        labels = range(len(coords))
    elif len(labels) != len(coords):
        raise ContractViolationError(f"{side} has {len(labels)} labels for {len(coords)} points")
    coords_i, coords_j = (coords[:, axes] * scales).T.tolist()
    return list(zip(map(str, labels), coords_i, coords_j))


def export_factor_plane(i, j, x_points, y_points, weights, ratios):
    """Build the ``(i, j)`` :class:`FactorPlane` of two point sets and its SVG document.

    ``x_points`` and ``y_points`` are ``(labels, coords)``: coords k x d,
    one row per point, labels None to number the points.  ``weights``
    are the d component scales of the principal coordinates (a
    decomposition's singular values, or a model's component
    correlations) and ``ratios`` the d inertia shares on the plane's
    axes (``score_ratios``, or :func:`inertia_shares` of the weights).
    """
    if i == j:
        raise ContractViolationError("plane axes must differ")
    d = len(weights)
    if not (0 <= i < d and 0 <= j < d):
        raise ContractViolationError(f"axes ({i}, {j}) out of range for d={d}")
    axes = [i, j]
    scales = np.asarray(weights, dtype=np.float64)[axes]
    plane = FactorPlane(i, j, _points("x", *x_points, scales, axes),
                        _points("y", *y_points, scales, axes), (float(ratios[i]), float(ratios[j])))
    return plane, render_svg(plane)


def plane_to_csv(plane: FactorPlane) -> str:
    """Emit the plane as text for :func:`plane_from_csv`.

    A preamble (axes, score ratios, column names), then one
    ``role,label,coord_i,coord_j`` row per point, x points first.
    """
    return csv_text([PLANE_CSV_HEADER], chain(
        [["axes", plane.axis_i, plane.axis_j],
         ["score_ratios", *plane.score_ratios],
         ["role", "label", "coord_i", "coord_j"]],
        (("x", *point) for point in plane.x_points),
        (("y", *point) for point in plane.y_points),
    ))


def plane_from_csv(text: str) -> FactorPlane:
    """Parse a :func:`plane_to_csv` document.

    This inverts :func:`plane_to_csv` exactly unless a label holds a
    carriage return and no comma, quote or newline: the writer ends lines
    with ``\\n`` and so leaves such a ``\\r`` unquoted, and the document
    raises :class:`CsvParseError`.
    """
    rows = list(csv_records(io.StringIO(text, newline=""), "malformed factor-plane document"))
    if not rows or rows[0][1] != [PLANE_CSV_HEADER]:
        raise CsvParseError("not a factor-plane document", line=1)
    if [fields[:1] for _, fields in rows[1:4]] != [["axes"], ["score_ratios"], ["role"]]:
        raise CsvParseError("malformed factor-plane preamble", line=2)
    points = {"x": [], "y": []}
    try:
        for k, (line, fields) in enumerate(rows[1:], start=1):
            if len(fields) != (3 if k < 3 else 4):
                raise CsvParseError(f"row has {len(fields)} fields", line=line)
            if k == 1:
                axes = (int(fields[1]), int(fields[2]))
            elif k == 2:
                ratios = (float(fields[1]), float(fields[2]))
            elif k > 3:
                points[fields[0]].append((fields[1], float(fields[2]), float(fields[3])))
    except (KeyError, ValueError) as exc:
        raise CsvParseError(f"malformed factor-plane document: {exc}", line=line) from None
    return FactorPlane(*axes, points["x"], points["y"], ratios)


#: No element uses ``.path``; the rule stays so that plane SVGs keep their bytes.
_SVG_STYLE = (
    ".xpt{fill:#1f6fb4;fill-opacity:0.65;stroke:none}"
    ".ypt{fill:#c23b22;stroke:#7a1f12;stroke-width:0.8}"
    ".lbl{font:10px sans-serif;fill:#333}"
    ".axis{stroke:#555;stroke-width:1;stroke-dasharray:5,4}"
    ".path{fill:none;stroke:#ff8c00;stroke-width:1.6}"
    ".frame{fill:#ffffff;stroke:#999}"
)


def render_svg(plane: FactorPlane) -> str:
    """Deterministic SVG scatter of a factor plane.

    Dashed lines mark the two zero axes; x points draw as discs, y
    points as labelled diamonds.  Axis captions carry the score ratios.
    """
    size, margin = SVG_SIZE, SVG_MARGIN
    points = chain(plane.x_points, plane.y_points)
    extent = max((max(abs(a), abs(b)) for _, a, b in points), default=1.0)
    extent = max(extent * 1.12, 1e-9)
    span = size - 2 * margin

    def px(value):
        return margin + (value + extent) / (2 * extent) * span

    def py(value):
        return size - margin - (value + extent) / (2 * extent) * span

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f"<style>{_SVG_STYLE}</style>",
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
    show_x_labels = len(plane.x_points) <= SVG_MAX_X_LABELS

    def x_mark(ci, cj):
        circle = f'<circle class="xpt" cx="{px(ci):.2f}" cy="{py(cj):.2f}" r="3"/>'
        if not show_x_labels:
            return circle
        return f'{circle}\n<text class="lbl" x="{px(ci) + 4:.2f}" y="{py(cj) - 4:.2f}">'

    def y_mark(ci, cj):
        cx, cy = px(ci), py(cj)
        return (
            f'<path class="ypt" d="M {cx:.2f} {cy - 4:.2f} L {cx + 4:.2f} {cy:.2f} '
            f'L {cx:.2f} {cy + 4:.2f} L {cx - 4:.2f} {cy:.2f} Z"/>\n'
            f'<text class="lbl" x="{cx + 5:.2f}" y="{cy + 3:.2f}">'
        )

    x_marks = [x_mark(ci, cj) for _, ci, cj in plane.x_points]
    out += _labelled(plane.x_points, x_marks) if show_x_labels else x_marks
    out += _labelled(plane.y_points, [y_mark(ci, cj) for _, ci, cj in plane.y_points])
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _labelled(points, marks):
    """Per point its mark, its label and ``</text>``."""
    return [f"{mark}{_esc(label)}</text>" for (label, _, _), mark in zip(points, marks)]


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def interpolate_path(model, x_start, x_end, steps: int) -> np.ndarray:
    """Principal-function values along the segment from x_start to x_end.

    Only defined for continuous x features; the endpoints must already
    live in the model's (possibly standardized) feature space.  Returns
    a steps x d array; ``steps=2`` gives the endpoints alone, equal
    endpoints give a degenerate repeated point.
    """
    if model.metadata.get("x_kind", "continuous") != "continuous":
        raise UnsupportedOperationError("interpolation needs continuous x features")
    if steps < 2:
        raise ContractViolationError("steps must be >= 2")
    a = np.asarray(x_start, dtype=np.float64).ravel()
    b = np.asarray(x_end, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ContractViolationError("endpoint dimensions differ")
    t = np.linspace(0.0, 1.0, steps)
    batch = a[:, None] * (1.0 - t)[None, :] + b[:, None] * t[None, :]
    return encode(model.f_params, batch, None).T
