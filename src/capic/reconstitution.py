"""Density-ratio reconstitution and the classifier built on it.

The joint density ratio expands in the principal functions as

    p(x, y) / (p_x(x) p_y(y)) = 1 + sum_i s_i f_i(x) g_i(y)

with ``s_i`` the component correlations (square roots of the factor
scores).  The y side is a finite label set, so the model holds the
values ``g(y)`` as a labels x d matrix ``G`` and evaluates the ratio of
``x`` with every label at once as ``1 + G (s * f(x))``.  With all
components of an exact discrete decomposition the expansion reproduces
the joint table exactly; truncated or estimated expansions can go
negative, which the classifier floors away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import CaDecomposition, ContingencyTable, ca_decompose
from .errors import ContractViolationError
from .neural import forward

#: Reconstituted ratios are floored at this value inside classification
#: only; raw ratios are returned unfloored.
RATIO_FLOOR = 1e-12


@dataclass
class ReconstitutionModel:
    pic_sqrt: np.ndarray  # weights of the expansion, one per component (d)
    f_eval: object        # x -> d-vector
    g_points: np.ndarray  # labels x d: row k is g(labels[k])
    labels: tuple         # finite y label set, fixed order
    prior_y: np.ndarray   # class prior over labels

    def __post_init__(self):
        self.pic_sqrt = np.asarray(self.pic_sqrt, dtype=np.float64)
        self.g_points = np.asarray(self.g_points, dtype=np.float64)
        self.labels = tuple(self.labels)
        self.prior_y = np.asarray(self.prior_y, dtype=np.float64)
        if len(self.labels) != self.prior_y.size:
            raise ContractViolationError("labels and prior_y sizes differ")
        if self.g_points.shape != (len(self.labels), self.pic_sqrt.size):
            raise ContractViolationError(
                f"g_points has shape {self.g_points.shape}, expected "
                f"(labels, components) = ({len(self.labels)}, {self.pic_sqrt.size})"
            )
        if abs(float(self.prior_y.sum()) - 1.0) > 1e-12:
            raise ContractViolationError("prior_y must sum to 1")


def _ratios(m: ReconstitutionModel, x) -> np.ndarray:
    """Reconstituted ratio of ``x`` with every label, in label order."""
    return 1.0 + m.g_points @ (m.pic_sqrt * np.asarray(m.f_eval(x), dtype=np.float64))


def density_ratio(m: ReconstitutionModel, x, y) -> float:
    """Reconstituted ``p(x,y) / (p_x p_y)``; may be negative when truncated."""
    if y not in m.labels:
        raise ContractViolationError(f"unknown y label {y!r}")
    return float(_ratios(m, x)[m.labels.index(y)])


def classify(m: ReconstitutionModel, x):
    """Maximum a-posteriori label via the reconstituted likelihood.

    ``scores[k] = prior_y[k] * max(ratio(x, label_k), floor)``; ties
    break toward the lowest label index.
    """
    scores = m.prior_y * np.maximum(_ratios(m, x), RATIO_FLOOR)
    return m.labels[int(np.argmax(scores))], scores


def from_table(table: ContingencyTable, decomp: CaDecomposition | None = None):
    """Exact reconstitution model of a discrete joint distribution."""
    if decomp is None:
        decomp = ca_decompose(table)
    x_index = {l: i for i, l in enumerate(table.x_labels)}
    l_factors = decomp.l_factors

    def f_eval(x):
        if x not in x_index:
            raise ContractViolationError(f"unknown x label {x!r}")
        return l_factors[x_index[x]]

    return ReconstitutionModel(
        pic_sqrt=decomp.sigmas,
        f_eval=f_eval,
        g_points=decomp.r_factors,
        labels=table.y_labels,
        prior_y=decomp.marginals_y,
    )


def from_cann(model, labels, label_features, prior_y):
    """Reconstitution model on top of a trained paired-encoder model.

    ``label_features[k]`` is the y-feature vector (e.g. the one-hot
    column) of ``labels[k]``.  The expansion weight is the raw estimated
    diagonal, which plays the role of the component correlations.
    """
    feats = np.column_stack([np.asarray(v, dtype=np.float64) for v in label_features])
    return ReconstitutionModel(
        pic_sqrt=model.raw_diagonal,
        f_eval=lambda x: forward(model.f_params, np.asarray(x, dtype=np.float64)[:, None])[0][:, 0],
        g_points=forward(model.g_params, feats)[0].T,
        labels=labels,
        prior_y=prior_y,
    )

