"""One-parameter group asymptotics exp(tA): the propagator and growth-exponent estimates.

The closed forms (half-plane resolution, limit, exact growth exponent) are the
real-part-keyed level resolution of ``satk.resolution``, re-exported here.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import InvalidInput, NumericalFailure
from .powerit import _MAX_STEPS, ScaledPower, scaled_power, vector_exponent_estimates
from .resolution import exp_growth_exponent_exact, halfplane_resolution, semigroup_limit

__all__ = ["exp_growth_estimate", "exp_growth_exponent_exact", "halfplane_resolution",
           "matrix_exp_scaled", "semigroup_limit"]

# The scaled step exp((t / 2^s) A) is taken with ||(t / 2^s) A|| under this.
_STEP_NORM_CAP = 0.5
# b_0 ... b_7 of the degree-7 diagonal Pade approximant of exp (Higham 2005)
_PADE7 = (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)


def _pade7(x) -> np.ndarray:
    """exp(X) by the degree-7 diagonal Pade approximant (V - U)^-1 (V + U),
    U = X (b_7 X^6 + b_5 X^4 + b_3 X^2 + b_1 I), V = b_6 X^6 + b_4 X^4 + b_2 X^2 + b_0 I.

    One degree serves every call: ``matrix_exp_scaled`` takes the step only
    at ||X||_2 <= _STEP_NORM_CAP = 0.5, below theta_7 ~ 0.95, the norm up to
    which Higham's bound puts the approximant's backward error under the unit
    roundoff.  So no norm estimate, no choice of degree and no squaring beyond
    the caller's 2^s is needed.  Four products and one LAPACK ``zgesv``;
    X = 0 gives I exactly.
    """
    b = _PADE7
    eye = np.eye(x.shape[0], dtype=np.complex128)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye
    _, _, r, info = linalg.lapack.zgesv(v - u, v + u)
    if info:
        raise NumericalFailure(f"zgesv of the Pade step failed (info={info})")
    return r


def matrix_exp_scaled(a, t: float) -> ScaledPower:
    """exp(tA) by scaling and squaring: the 2^s-th power of the Pade step exp((t / 2^s) A)."""
    a = linalg.as_matrix(a)
    if t < 0:
        raise InvalidInput(f"t must be non-negative, got {t}")
    norm_ta = t * linalg.norm2(a)
    squarings = max(0, int(np.ceil(np.log2(max(norm_ta / _STEP_NORM_CAP, 1.0)))))
    return scaled_power(_pade7((t / 2**squarings) * a), 2**squarings)


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
