"""Spectral asymptotics toolkit: matrix power limits, Dunford decompositions, and shifts."""

from .decomp import (
    DunfordDecomposition,
    EigenCluster,
    SpectralIdempotent,
    dunford,
    eigen_clusters,
    spectral_idempotent,
)
from .errors import (
    IllConditioned,
    InvalidInput,
    NumericalFailure,
    ParseError,
    UsageError,
)
from .instances import Instance, InstanceSpec, generate_instance
from .linalg import range_projection
from .mmio import parse_matrix
from .powerit import (
    ConvergenceReport,
    ScaledPower,
    convergence_study,
    normalized_power,
    scaled_power,
    vector_exponent_estimates,
    yamamoto_limits,
)
from .records import ARTIFACT_VERSION, RunConfig, RunRecord
from .resolution import (
    LimitOperator,
    LevelResolution,
    check_resolution,
    limit_operator,
    modulus_resolution,
    vector_exponent_exact,
)
from .semigroup import (
    exp_growth_estimate,
    exp_growth_exponent_exact,
    halfplane_resolution,
    matrix_exp_scaled,
    semigroup_limit,
)
from .shifts import (
    WeightSequence,
    backward_classifier,
    geometric_mean_table,
    shift_power_crosscheck,
    uniform_limit_detector,
)

__version__ = ARTIFACT_VERSION
