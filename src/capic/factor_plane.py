"""Factor-plane construction, SVG rendering, and feature interpolation.

A factor plane plots two components of the decomposition for both
variables at once.  Points use principal coordinates (factor values
scaled by the component correlation), so independent data collapses to
the origin.  The SVG output is plain deterministic text: same inputs,
same bytes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .classical import CaDecomposition
from .errors import ContractViolationError, CsvParseError, UnsupportedOperationError
from .fileio import csv_text
from .whitening import PrincipalFunctions

PLANE_CSV_HEADER = "# factor-plane v1"

#: SVG canvas side and frame margin, in pixels.
SVG_SIZE = 640
SVG_MARGIN = 46
#: Planes with more x points than this draw them without labels.
SVG_MAX_X_LABELS = 50


@dataclass
class FactorPlane:
    axis_i: int
    axis_j: int
    x_points: list  # (label, coord_i, coord_j)
    y_points: list
    score_ratios: tuple  # share of total inertia on each axis


def _ratios_from_diag(diag, i, j):
    weights = np.square(np.asarray(diag, dtype=np.float64))
    total = float(weights.sum())
    if total <= 0:
        return (0.0, 0.0)
    return (float(weights[i] / total), float(weights[j] / total))


def _points(matrix_rows, scale_i, scale_j, i, j, labels):
    if labels is None:
        labels = [str(k) for k in range(matrix_rows.shape[0])]
    return [
        (str(label), float(scale_i * row[i]), float(scale_j * row[j]))
        for label, row in zip(labels, matrix_rows)
    ]


def export_factor_plane(source, i, j, x_labels=None, y_labels=None, y_points=None):
    """Build a :class:`FactorPlane` and its SVG document.

    ``source`` is a :class:`CaDecomposition` (categories as points) or
    a :class:`PrincipalFunctions` (samples as points; ``y_points`` may
    supply a d x k matrix of per-category coordinates to plot instead
    of per-sample ones).
    """
    if i == j:
        raise ContractViolationError("plane axes must differ")
    if isinstance(source, CaDecomposition):
        d = source.d
        if not (0 <= i < d and 0 <= j < d):
            raise ContractViolationError(f"axes ({i}, {j}) out of range for d={d}")
        sig = source.sigmas
        xp = _points(source.l_factors, sig[i], sig[j], i, j, x_labels)
        yp = _points(source.r_factors, sig[i], sig[j], i, j, y_labels)
        ratios = (float(source.score_ratios[i]), float(source.score_ratios[j]))
    elif isinstance(source, PrincipalFunctions):
        d = source.f.shape[0]
        if not (0 <= i < d and 0 <= j < d):
            raise ContractViolationError(f"axes ({i}, {j}) out of range for d={d}")
        diag = source.pic_diagonal
        xp = _points(source.f.T, diag[i], diag[j], i, j, x_labels)
        y_mat = source.g if y_points is None else np.asarray(y_points, dtype=np.float64)
        yp = _points(y_mat.T, diag[i], diag[j], i, j, y_labels)
        ratios = _ratios_from_diag(diag, i, j)
    else:
        raise ContractViolationError(f"cannot plot a {type(source).__name__}")
    plane = FactorPlane(axis_i=i, axis_j=j, x_points=xp, y_points=yp, score_ratios=ratios)
    return plane, render_svg(plane)


def plane_to_csv(plane: FactorPlane) -> str:
    """Emit the plane as text for :func:`plane_from_csv`."""
    rows = [
        ["axes", plane.axis_i, plane.axis_j],
        ["score_ratios", *plane.score_ratios],
        ["role", "label", "coord_i", "coord_j"],
    ]
    for role, points in (("x", plane.x_points), ("y", plane.y_points)):
        rows += [[role, *point] for point in points]
    return csv_text([PLANE_CSV_HEADER], rows)


def plane_from_csv(text: str) -> FactorPlane:
    """Parse a :func:`plane_to_csv` document.

    This inverts :func:`plane_to_csv` exactly unless a label holds a
    carriage return and no comma, quote or newline: the writer ends lines
    with ``\\n`` and so leaves such a ``\\r`` unquoted, and the document
    raises :class:`CsvParseError`.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, line = [], 1  # rows are (line the row starts on, fields)
    try:
        for fields in reader:
            rows.append((line, fields))
            line = reader.line_num + 1
        if not rows or rows[0][1] != [PLANE_CSV_HEADER]:
            raise CsvParseError("not a factor-plane document", line=1)
        if [fields[:1] for _, fields in rows[1:4]] != [["axes"], ["score_ratios"], ["role"]]:
            raise CsvParseError("malformed factor-plane preamble", line=2)
        points = {"x": [], "y": []}
        for k, (line, fields) in enumerate(rows[1:], start=1):
            if len(fields) != (3 if k < 3 else 4):
                raise CsvParseError(f"row has {len(fields)} fields", line=line)
            if k == 1:
                axes = (int(fields[1]), int(fields[2]))
            elif k == 2:
                ratios = (float(fields[1]), float(fields[2]))
            elif k > 3:
                points[fields[0]].append((fields[1], float(fields[2]), float(fields[3])))
    except (csv.Error, KeyError, ValueError) as exc:
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
    for label, ci, cj in plane.x_points:
        out.append(f'<circle class="xpt" cx="{px(ci):.2f}" cy="{py(cj):.2f}" r="3"/>')
        if show_x_labels:
            out.append(
                f'<text class="lbl" x="{px(ci) + 4:.2f}" y="{py(cj) - 4:.2f}">{_esc(label)}</text>'
            )
    for label, ci, cj in plane.y_points:
        cx, cy = px(ci), py(cj)
        out.append(
            f'<path class="ypt" d="M {cx:.2f} {cy - 4:.2f} L {cx + 4:.2f} {cy:.2f} '
            f'L {cx:.2f} {cy + 4:.2f} L {cx - 4:.2f} {cy:.2f} Z"/>'
        )
        out.append(f'<text class="lbl" x="{cx + 5:.2f}" y="{cy + 3:.2f}">{_esc(label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


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
    return model.principal_f(batch).T
