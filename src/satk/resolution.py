"""Level resolutions {F_j} and the closed-form limits they give.

One construction serves both limits of the paper.  The spectrum is grouped
into levels by a key: the eigenvalue modulus for lim |A^n|^(1/n), the real
part for lim |exp(tA)|^(1/t).  F_j is the range projection of the sum of the
spectral idempotents at levels <= j, and each limit is a weighted sum of the
increments F_j - F_{j-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .decomp import DunfordDecomposition, default_cluster_tol
from .errors import InvalidInput

MEMBERSHIP_TOL = 1e-8


def cluster_values(values, tol: float) -> list[list[int]]:
    """Group indices of sorted-comparable real values whose gaps are <= tol (single linkage)."""
    order = np.argsort(values)
    groups: list[list[int]] = []
    for idx in order:
        if groups and values[idx] - values[groups[-1][-1]] <= tol:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    return groups


@dataclass(frozen=True)
class LevelResolution:
    """Increasing orthogonal projections F_1 <= ... <= F_k = I at the distinct spectral levels."""

    levels: tuple
    projections: tuple
    source: DunfordDecomposition
    # e_j = sum of idempotents with level <= j; oblique, used for membership tests
    idempotent_sums: tuple


@dataclass(frozen=True)
class LimitOperator:
    """The PSD limit K = sum_j w(level_j) (F_j - F_{j-1})."""

    matrix: np.ndarray
    spectrum_moduli: tuple


@dataclass(frozen=True)
class ResolutionDiagnostics:
    max_idempotency_residual: float
    max_monotonicity_violation: float
    top_identity_gap: float

    def within(self, tol: float) -> bool:
        return (
            self.max_idempotency_residual <= tol
            and self.max_monotonicity_violation <= tol
            and self.top_identity_gap <= tol
        )


def _level_sums(dec: DunfordDecomposition, key):
    """Clustered levels key(lambda), ascending, with the cumulative idempotent sums e_j.

    Distinct eigenvalue clusters whose keys coincide merge into one level.
    """
    values = np.array([key(p.cluster.representative) for p in dec.idempotents])
    levels = []
    sums = []
    acc = np.zeros((dec.dim, dec.dim), dtype=np.complex128)
    for group in cluster_values(values, default_cluster_tol(dec.matrix)):
        levels.append(float(np.mean(values[group])))
        for idx in group:
            acc = acc + dec.idempotents[idx].matrix
        sums.append(acc)
    return levels, sums


def _level_resolution(dec: DunfordDecomposition, key) -> LevelResolution:
    levels, sums = _level_sums(dec, key)
    # the top level covers everything: take the exact identity
    projections = [linalg.range_projection(e) for e in sums[:-1]]
    projections.append(np.eye(dec.dim, dtype=np.complex128))
    return LevelResolution(
        levels=tuple(levels),
        projections=tuple(projections),
        source=dec,
        idempotent_sums=tuple(sums),
    )


def modulus_resolution(dec: DunfordDecomposition) -> LevelResolution:
    """F_j = R(e_A(D_{a_j})) over the clustered moduli a_1 < ... < a_k."""
    return _level_resolution(dec, abs)


def halfplane_resolution(dec: DunfordDecomposition) -> LevelResolution:
    """G_j = R(e_A(H_{b_j})) over the clustered real parts b_1 < ... < b_l."""
    return _level_resolution(dec, np.real)


def _weighted_sum(res: LevelResolution, weight) -> LimitOperator:
    dim = res.source.dim
    k = np.zeros((dim, dim), dtype=np.complex128)
    prev = np.zeros((dim, dim), dtype=np.complex128)
    weights = [weight(level) for level in res.levels]
    for w, f in zip(weights, res.projections):
        k += w * (f - prev)
        prev = f
    return LimitOperator(matrix=0.5 * (k + k.conj().T), spectrum_moduli=tuple(map(float, weights)))


def limit_operator(res: LevelResolution) -> LimitOperator:
    """Closed form of lim |A^n|^(1/n): K = sum_j a_j (F_j - F_{j-1})."""
    return _weighted_sum(res, float)


def semigroup_limit(res: LevelResolution) -> LimitOperator:
    """Closed form of lim |exp(tA)|^(1/t): sum_j exp(b_j) (G_j - G_{j-1})."""
    return _weighted_sum(res, np.exp)


def _smallest_level(dec: DunfordDecomposition, key, x) -> float | None:
    """Smallest level whose cumulative idempotent range contains x; None for x = 0."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.shape[0] != dec.dim:
        raise InvalidInput(f"vector has length {x.shape[0]}, expected {dec.dim}")
    nx = np.linalg.norm(x)
    if nx == 0.0:
        return None
    levels, sums = _level_sums(dec, key)
    for level, e in zip(levels, sums):
        if np.linalg.norm(e @ x - x) <= MEMBERSHIP_TOL * nx:
            return level
    return levels[-1]


def vector_exponent_exact(dec: DunfordDecomposition, x) -> float:
    """Smallest modulus level whose spectral idempotent range contains x.

    The zero vector lies in every range, so it maps to 0.
    """
    level = _smallest_level(dec, abs, x)
    return 0.0 if level is None else level


def exp_growth_exponent_exact(dec: DunfordDecomposition, x) -> float:
    """Smallest real part b with x in the range of the half-plane idempotent e_A(H_b)."""
    level = _smallest_level(dec, np.real, x)
    if level is None:
        raise InvalidInput("growth exponent of the zero vector is undefined")
    return level


def check_resolution(res: LevelResolution) -> ResolutionDiagnostics:
    """Idempotency, monotonicity, and top-element diagnostics for a resolution."""
    idem = 0.0
    mono = 0.0
    prev = None
    for f in res.projections:
        idem = max(idem, linalg.norm2(f @ f - f), linalg.norm2(f - f.conj().T))
        if prev is not None:
            low = float(np.linalg.eigvalsh(0.5 * (f + f.conj().T) - prev)[0])
            mono = max(mono, -min(low, 0.0))
        prev = 0.5 * (f + f.conj().T)
    top_gap = linalg.norm2(res.projections[-1] - np.eye(res.source.dim))
    return ResolutionDiagnostics(
        max_idempotency_residual=float(idem),
        max_monotonicity_violation=float(mono),
        top_identity_gap=float(top_gap),
    )
