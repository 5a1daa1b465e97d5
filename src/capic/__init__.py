"""Correspondence analysis via principal inertia components.

Two routes to the same decomposition: the classical SVD of a normalized
contingency table (:mod:`capic.classical`) and a neural estimator that
trains a pair of encoders under a nuclear-norm objective and whitens
their outputs into principal functions (:mod:`capic.neural`,
:mod:`capic.objective`, :mod:`capic.whitening`).  Analytic oracles for
the synthetic test problems live in :mod:`capic.oracles`; dataset
ingestion, experiment orchestration and factor-plane export in
:mod:`capic.datasets`, :mod:`capic.experiment` and
:mod:`capic.factor_plane`.
"""

from .classical import (
    CaDecomposition,
    ContingencyTable,
    ca_decompose,
    contingency_from_pmf,
    pics_exact,
    q_matrix,
)
from .datasets import PairedDataset, load_csv, one_hot_encode, synthetic_wine_csv
from .errors import CaError
from .factor_plane import FactorPlane, export_factor_plane, interpolate_path, plane_to_csv
from .linalg import SvdResult, eig_sym, inv_sqrt_psd, svd
from .model import CaNnModel, fit_ca_nn_model, load_model, save_model
from .neural import (
    MlpConfig,
    MlpParams,
    TrainConfig,
    backward,
    forward,
    mlp_init,
    train_ca_nn,
)
from .objective import BatchOutputs, LossReport, empirical_covariances, pic_loss
from .oracles import (
    BscSpec,
    GaussianPairSpec,
    bsc_joint_pmf,
    bsc_sample,
    bsc_spectrum_uniform,
    gaussian_pair_sample,
    gaussian_reference_values,
    hermite,
    multimodal_gaussian_sample,
)
from .reconstitution import ReconstitutionModel, classify, density_ratio
from .whitening import PrincipalFunctions, WhiteningTransform, apply_whitening, fit_whitening

__version__ = "0.1.0"
