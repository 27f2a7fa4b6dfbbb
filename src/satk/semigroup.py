"""One-parameter group asymptotics exp(tA): the propagator and growth-exponent estimates.

The closed forms (half-plane resolution, limit, exact growth exponent) are the
real-part-keyed level resolution of ``satk.resolution``, re-exported here.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import linalg
from .errors import InvalidInput
from .powerit import ScaledPower, scaled_power, vector_exponent_estimates
from .resolution import exp_growth_exponent_exact, halfplane_resolution, semigroup_limit

__all__ = ["exp_growth_estimate", "exp_growth_exponent_exact", "halfplane_resolution",
           "matrix_exp_scaled", "semigroup_limit"]

# The scaled step exp((t / 2^s) A) is taken with ||(t / 2^s) A|| under this.
_STEP_NORM_CAP = 0.5
# exp_growth_estimate refuses a t ||A|| that needs more propagator steps than this.
_MAX_STEPS = 2**22


def matrix_exp_scaled(a, t: float) -> ScaledPower:
    """exp(tA) by scaling and squaring: the 2^s-th power of exp((t / 2^s) A)."""
    a = linalg.as_matrix(a)
    if t < 0:
        raise InvalidInput(f"t must be non-negative, got {t}")
    norm_ta = t * linalg.norm2(a)
    squarings = max(0, int(np.ceil(np.log2(max(norm_ta / _STEP_NORM_CAP, 1.0)))))
    return scaled_power(scipy.linalg.expm((t / 2**squarings) * a), 2**squarings)


def exp_growth_estimate(a, x, t: float) -> float:
    """log||exp(tA)x|| / t, estimated by iterating a small-step propagator.

    Uses K renormalized applications of exp((t/K)A) so strongly contracting
    directions stay representable; for large t the exponent is read off the
    propagator's singular flag (see vector_exponent_estimates).
    """
    a = linalg.as_matrix(a)
    if t <= 0:
        raise InvalidInput(f"t must be positive, got {t}")
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if np.linalg.norm(x) == 0.0:
        raise InvalidInput("growth exponent of the zero vector is undefined")
    steps = np.ceil(t * max(linalg.norm2(a), 0.5) / _STEP_NORM_CAP)
    if not steps <= _MAX_STEPS:
        raise InvalidInput(f"t ||A|| needs {steps:.3g} propagator steps, more than {_MAX_STEPS}")
    steps = max(1, int(steps))
    h = t / steps
    propagator = matrix_exp_scaled(a, h)
    growth = vector_exponent_estimates(propagator.unit, x, steps)[0]
    if growth == 0.0:
        # exp(tA) is invertible; a zero here can only mean underflow of the
        # unit propagator, which bounded generators never produce.
        return -np.inf
    return float((np.log(growth) + propagator.log_scale) / h)
