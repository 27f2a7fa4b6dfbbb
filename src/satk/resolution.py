"""Level resolutions {F_j} and the closed-form limits they give.

One construction serves both limits of the paper.  The spectrum is grouped
into levels by a key: the eigenvalue modulus for lim |A^n|^(1/n), the real
part for lim |exp(tA)|^(1/t).  F_j, the range of the spectral idempotent of
the levels <= j, is the leading invariant subspace of the Schur form of A
reordered to put those eigenvalues first: F_j = Z_1 Z_1*.  Each limit is a
weighted sum of the increments F_j - F_{j-1}.
"""

from __future__ import annotations

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


def _level_resolution(dec: DunfordDecomposition, key) -> LevelResolution:
    clusters = tuple((p.cluster.representative, p.cluster.multiplicity) for p in dec.idempotents)
    return _resolution(dec.matrix, key, clusters)


@linalg.matrix_memo(maxsize=8)
def _resolution(a, key, clusters: tuple) -> LevelResolution:
    """Resolution of A with the (representative, multiplicity) clusters.
    Levels: the clustered keys of the representatives, ascending.  At each
    cut between levels the Schur form is reordered to put the keys below it
    first (``reorder_schur``, which refuses a small sep); the cut is also
    refused if their count is not the multiplicity below it.  Membership
    tests share this memo."""
    t, z, scale = schur_form(a)
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
    projections.append(np.eye(a.shape[0], dtype=np.complex128))
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
    """Closed form of lim |A^n|^(1/n): K = sum_j a_j (F_j - F_{j-1}).

    Refused when K leaves float range, as the mean modulus of a cluster near
    the float maximum does: that limit cannot be computed unscaled.
    """
    k = _weighted_sum(res, float)
    if not np.isfinite(k.matrix).all():
        raise InvalidInput(f"the limit of top modulus {res.levels[-1]:.6g} leaves float range")
    return k


def semigroup_limit(res: LevelResolution) -> LimitOperator:
    """Closed form of lim |exp(tA)|^(1/t): sum_j exp(b_j) (G_j - G_{j-1}).

    Refused when twice exp(b) of the top level, which the symmetrization of
    the weighted sum forms, leaves float range: that limit cannot be computed.
    """
    with np.errstate(over="ignore"):
        top = 2.0 * np.exp(res.levels[-1])
    if not np.isfinite(top):
        raise InvalidInput(f"exp of the top real part {res.levels[-1]:.6g} leaves float range")
    return _weighted_sum(res, np.exp)


def _smallest_level(dec: DunfordDecomposition, key, x) -> float | None:
    """Smallest level whose F_j contains x; None for x = 0; refused past float range."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    m = dec.matrix.shape[0]
    if x.shape[0] != m:
        raise InvalidInput(f"vector has length {x.shape[0]}, expected {m}")
    x = linalg.binary_scaled(x)
    nx = np.linalg.norm(x)
    if nx == 0.0:
        return None
    res = _level_resolution(dec, key)
    for level, f in zip(res.levels, res.projections):
        if np.linalg.norm(f @ x - x) <= MEMBERSHIP_TOL * nx:
            break
    if not np.isfinite(level):
        raise InvalidInput(f"the level {level} of the vector leaves float range")
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
    return worst / linalg.norm2(a) if worst else 0.0
