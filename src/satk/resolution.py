"""Level resolutions {F_j} and the closed-form limits they give.

One construction serves both limits of the paper.  The spectrum is grouped
into levels by a key: the eigenvalue modulus for lim |A^n|^(1/n), the real
part for lim |exp(tA)|^(1/t).  F_j, the range of the spectral idempotent of
the levels <= j, is the leading invariant subspace of the Schur form of A
reordered to put those eigenvalues first: F_j = Z_1 Z_1*, from the pass
``decomp.ordered_schur`` that gives the cluster idempotents too.  Each limit
is a weighted sum of the increments F_j - F_{j-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .decomp import DunfordDecomposition, ordered_schur, schur_form
from .errors import InvalidInput

MEMBERSHIP_TOL = 1e-8


@dataclass(frozen=True)
class LevelResolution:
    """Increasing orthogonal projections F_1 <= ... <= F_k = I at the distinct spectral levels."""

    levels: tuple
    projections: tuple


@dataclass(frozen=True)
class LimitOperator:
    """The PSD limit K = sum_j w(level_j) (F_j - F_{j-1})."""

    matrix: np.ndarray
    spectrum_moduli: tuple


def modulus_resolution(dec: DunfordDecomposition) -> LevelResolution:
    """F_j = R(e_A(D_{a_j})) over the clustered moduli a_1 < ... < a_k."""
    return LevelResolution(*ordered_schur(dec.matrix, np.abs)[2:])


def halfplane_resolution(dec: DunfordDecomposition) -> LevelResolution:
    """G_j = R(e_A(H_{b_j})) over the clustered real parts b_1 < ... < b_l."""
    return LevelResolution(*ordered_schur(dec.matrix, np.real)[2:])


def _weighted_sum(res: LevelResolution, weight) -> LimitOperator:
    dim = res.projections[-1].shape[0]
    k = np.zeros((dim, dim), dtype=np.complex128)
    prev = np.zeros((dim, dim), dtype=np.complex128)
    weights = [weight(level) for level in res.levels]
    for w, f in zip(weights, res.projections):
        k += w * (f - prev)
        prev = f
    # halved before the sum, which can overflow where K does not
    return LimitOperator(matrix=0.5 * k + 0.5 * k.conj().T, spectrum_moduli=tuple(map(float, weights)))


def limit_operator(res: LevelResolution) -> LimitOperator:
    """Closed form of lim |A^n|^(1/n): K = sum_j a_j (F_j - F_{j-1}), refused past float range."""
    k = _weighted_sum(res, float)
    if not np.isfinite(k.matrix).all():
        raise InvalidInput(f"the limit of top modulus {res.levels[-1]:.6g} leaves float range")
    return k


def semigroup_limit(res: LevelResolution) -> LimitOperator:
    """Closed form of lim |exp(tA)|^(1/t): sum_j exp(b_j) (G_j - G_{j-1}).

    Refused when twice exp(b) of the top level leaves float range: that
    margin keeps the weighted sum in range.
    """
    with np.errstate(over="ignore"):
        top = 2.0 * np.exp(res.levels[-1])
    if not np.isfinite(top):
        raise InvalidInput(f"exp of the top real part {res.levels[-1]:.6g} leaves float range")
    return _weighted_sum(res, np.exp)


def _smallest_level(dec: DunfordDecomposition, key, x) -> float | None:
    """Smallest level whose F_j contains x; None for x = 0."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    m = dec.matrix.shape[0]
    if x.shape[0] != m:
        raise InvalidInput(f"vector has length {x.shape[0]}, expected {m}")
    x = linalg.binary_scaled(x)
    nx = np.linalg.norm(x)
    if nx == 0.0:
        return None
    levels, projections = ordered_schur(dec.matrix, key)[2:]  # the resolution's memo
    for level, f in zip(levels, projections):
        if np.linalg.norm(f @ x - x) <= MEMBERSHIP_TOL * nx:
            break
    return level


def vector_exponent_exact(dec: DunfordDecomposition, x) -> float:
    """Smallest modulus level whose spectral idempotent range contains x.

    The zero vector lies in every range, so it maps to 0.
    """
    level = _smallest_level(dec, np.abs, x)
    return 0.0 if level is None else level


def exp_growth_exponent_exact(dec: DunfordDecomposition, x) -> float:
    """Smallest real part b with x in the range of the half-plane idempotent e_A(H_b)."""
    level = _smallest_level(dec, np.real, x)
    if level is None:
        raise InvalidInput("growth exponent of the zero vector is undefined")
    return level


def check_resolution(a, res: LevelResolution) -> float:
    """Invariant-subspace residual max_j ||(I - F_j) A F_j|| / ||A||, and 0 for A = 0.

    It is the backward error of the Schur split behind each F_j (Stewart
    1973): 0 when every range of F_j is A-invariant, as for a resolution of
    A's own spectrum, and of order one for the projections of another matrix.
    """
    a = linalg.as_matrix(a)
    eye = np.eye(a.shape[0])
    worst = max(linalg.norm2((eye - f) @ a @ f) for f in res.projections)
    return worst / schur_form(a)[2] if worst else 0.0  # ||A|| from the Schur form's memo
