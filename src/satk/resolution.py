"""Level resolutions {F_j} and the closed-form limits they give.

One construction serves both limits of the paper.  The spectrum is grouped
into levels by a key: the eigenvalue modulus for lim |A^n|^(1/n), the real
part for lim |exp(tA)|^(1/t).  F_j, the range of the spectral idempotent of
the levels <= j, is the leading invariant subspace of the Schur form of A
reordered to put those eigenvalues first: F_j = Z_1 Z_1*.  Each limit is a
weighted sum of the increments F_j - F_{j-1}.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .decomp import CLUSTER_TOL, DunfordDecomposition, reorder_schur, schur_form, single_linkage
from .errors import IllConditioned, InvalidInput

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


@dataclass(frozen=True)
class ResolutionDiagnostics:
    max_idempotency_residual: float
    max_monotonicity_violation: float
    top_identity_gap: float


def _level_resolution(dec: DunfordDecomposition, key) -> LevelResolution:
    clusters = tuple((p.cluster.representative, p.cluster.multiplicity) for p in dec.idempotents)
    return _resolution(dec.matrix.tobytes(), dec.dim, key, clusters)


@functools.lru_cache(maxsize=8)
def _resolution(matrix_key: bytes, m: int, key, clusters: tuple) -> LevelResolution:
    """Resolution of the m x m matrix with a.tobytes() == matrix_key and the
    (representative, multiplicity) clusters.  Levels: the clustered keys of
    the representatives, ascending.  At each cut between levels the Schur
    form is reordered to put the keys below it first (``reorder_schur``,
    which refuses a small sep); the cut is also refused if their count is not
    the multiplicity below it.  Membership tests share this memo, so the
    projections are read-only."""
    t, z, scale = schur_form(np.frombuffer(matrix_key, dtype=np.complex128).reshape(m, m))
    values = np.array([key(rep) for rep, _ in clusters])
    groups = single_linkage(values, CLUSTER_TOL * scale)
    levels, groups = zip(*sorted((float(np.mean(values[g])), g) for g in groups))
    projections = []
    rank = 0
    for j, group in enumerate(groups[:-1]):
        rank += sum(clusters[i][1] for i in group)
        t, z, k = reorder_schur(t, z, key(t.diagonal()) <= 0.5 * (levels[j] + levels[j + 1]), scale)
        if k != rank:
            raise IllConditioned(
                f"cut above level {j + 1} of {len(levels)} ({levels[j]:.6g}) refused: "
                f"{k} Schur eigenvalues below it for multiplicity {rank}"
            )
        projections.append(z[:, :k] @ z[:, :k].conj().T)
    # the top level covers everything: take the exact identity
    projections.append(np.eye(m, dtype=np.complex128))
    for f in projections:
        f.flags.writeable = False
    return LevelResolution(levels=levels, projections=tuple(projections))


def modulus_resolution(dec: DunfordDecomposition) -> LevelResolution:
    """F_j = R(e_A(D_{a_j})) over the clustered moduli a_1 < ... < a_k."""
    return _level_resolution(dec, np.abs)


def halfplane_resolution(dec: DunfordDecomposition) -> LevelResolution:
    """G_j = R(e_A(H_{b_j})) over the clustered real parts b_1 < ... < b_l."""
    return _level_resolution(dec, np.real)


def _weighted_sum(res: LevelResolution, weight) -> LimitOperator:
    dim = res.projections[-1].shape[0]
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
    """Smallest level whose F_j contains x; None for x = 0."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.shape[0] != dec.dim:
        raise InvalidInput(f"vector has length {x.shape[0]}, expected {dec.dim}")
    nx = np.linalg.norm(x)
    if nx == 0.0:
        return None
    res = _level_resolution(dec, key)
    for level, f in zip(res.levels, res.projections):
        if np.linalg.norm(f @ x - x) <= MEMBERSHIP_TOL * nx:
            return level
    return res.levels[-1]


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
    top_gap = linalg.norm2(res.projections[-1] - np.eye(res.projections[-1].shape[0]))
    return ResolutionDiagnostics(
        max_idempotency_residual=float(idem),
        max_monotonicity_violation=float(mono),
        top_identity_gap=float(top_gap),
    )
