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
from .linalg import (
    abs_op,
    loewner_leq,
    psd_power,
    range_projection,
    spectral_radius,
    weighted_psd_sum_root,
)
from .mmio import matrix_to_json, parse_matrix
from .powerit import (
    ConvergenceReport,
    ScaledPower,
    brute_force_power,
    convergence_study,
    normalized_power,
    scaled_power,
    vector_exponent_estimate,
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
    MeanTable,
    WeightSequence,
    backward_classifier,
    blocks,
    constant,
    explicit,
    geometric,
    geometric_mean_table,
    harmonic,
    shift_power_crosscheck,
    truncate_backward,
    truncate_forward,
    uniform_limit_detector,
)

__version__ = ARTIFACT_VERSION
