"""Eigenvalue clustering, spectral idempotents, and the Dunford decomposition A = D + N.

All of them come from one complex Schur form A = Z T Z* per matrix: the
eigenvalues are the diagonal of T, and a cluster's idempotent comes from T
reordered to put the cluster first and one triangular Sylvester solve.
``reorder_schur`` makes every split of T, here and in ``satk.resolution``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from . import linalg
from .errors import IllConditioned, NumericalFailure

# A split of the Schur form is refused when sep(T11, T22) is below
# SEP_FLOOR * max(1, ||A||): the error of its invariant subspace is about
# eps * ||A|| / sep (Stewart 1973), which this keeps under 1e-6.
SEP_FLOOR = 1e-10
# Eigenvalues (and level keys) within CLUSTER_TOL * max(1, ||A||) are one spectral point.
CLUSTER_TOL = 1e-6


@dataclass(frozen=True)
class EigenCluster:
    """One group of computed eigenvalues treated as a single spectral point."""

    representative: complex
    members: tuple
    multiplicity: int


@dataclass(frozen=True)
class SpectralIdempotent:
    """Projection onto a generalized eigenspace along its complement."""

    matrix: np.ndarray
    cluster: EigenCluster


@dataclass(frozen=True)
class DunfordDecomposition:
    """A = D + N with D scalar (diagonalizable), N nilpotent, DN = ND."""

    matrix: np.ndarray
    scalar_part: np.ndarray
    nilpotent_part: np.ndarray
    idempotents: tuple
    condition_bound: float = field(default=0.0)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@functools.lru_cache(maxsize=8)
def _schur_form(key: bytes, m: int):
    """(T, Z, scale) with A = Z T Z* and scale = max(1, ||A||) for the m x m
    matrix with a.tobytes() == key, by LAPACK zgees.  Shared through this
    memo, so the arrays are read-only."""
    a = np.frombuffer(key, dtype=np.complex128).reshape(m, m)
    t, _, _, z, _, info = lapack.zgees(lambda w: 0, a)
    if info != 0:
        raise NumericalFailure(f"zgees failed with info={info}")
    t.flags.writeable = False
    z.flags.writeable = False
    return t, z, max(1.0, linalg.norm2(a))


def schur_form(a):
    """(T, Z, max(1, ||A||)) with A = Z T Z*, computed once per matrix."""
    return _schur_form(a.tobytes(), a.shape[0])


def reorder_schur(t, z, select, scale: float):
    """(T, Z, k): the Schur form reordered by ztrsen to put the k selected
    diagonal entries first.  Refused with IllConditioned(residual=sep) when
    sep(T11, T22) < SEP_FLOOR * scale."""
    m = t.shape[0]
    k = int(np.count_nonzero(select))
    t, z, _, _, _, sep, info = lapack.ztrsen(select, t, z, job="V", lwork=max(1, 2 * k * (m - k)))
    if info != 0:
        raise NumericalFailure(f"ztrsen failed with info={info}")
    if sep < SEP_FLOOR * scale:
        raise IllConditioned(
            f"Schur split after {k} of {m} eigenvalues refused: sep = {sep:.3g} < {SEP_FLOOR * scale:.3g}",
            residual=float(sep),
        )
    return t, z, k


def single_linkage(values, tol: float) -> list[list[int]]:
    """Index groups of the (real or complex) values, chained by |v_i - v_j| <= tol."""
    groups: list[list[int]] = []
    for i, v in enumerate(values):
        near = [g for g in groups if any(abs(v - values[j]) <= tol for j in g)]
        groups = [g for g in groups if g not in near] + [sorted([i, *(j for g in near for j in g)])]
    return groups


def eigen_clusters(a) -> list:
    """Single-linkage clustering of the eigenvalues of A (the Schur diagonal).

    Clusters are returned sorted by (Re, Im) of their representatives and are
    pairwise separated by more than ``CLUSTER_TOL * max(1, ||A||)``.
    """
    t, _, scale = schur_form(linalg.as_matrix(a))
    eigvals = [complex(z) for z in t.diagonal()]
    groups = [[eigvals[i] for i in g] for g in single_linkage(eigvals, CLUSTER_TOL * scale)]
    clusters = [EigenCluster(complex(np.mean(vals)), tuple(vals), len(vals)) for vals in groups]
    clusters.sort(key=lambda c: (c.representative.real, c.representative.imag))
    return clusters


def spectral_idempotent(a, cluster: EigenCluster) -> SpectralIdempotent:
    """Idempotent onto the generalized eigenspace of ``cluster``, the Schur
    diagonal entries within ``CLUSTER_TOL * max(1, ||A||)`` of its members: T
    reordered to [[T11, T12], [0, T22]] with them in T11, ztrsyl solves
    T11 Y - Y T22 = T12, and Z [[I, Y], [0, 0]] Z* commutes with A."""
    t, z, scale = schur_form(linalg.as_matrix(a))
    gaps = np.abs(t.diagonal()[:, None] - np.array(cluster.members)[None, :])
    select = gaps.min(axis=1) <= CLUSTER_TOL * scale
    m, k = t.shape[0], int(np.count_nonzero(select))
    if k == 0 or k == m:
        p = np.eye(m, dtype=np.complex128) if k else np.zeros((m, m), dtype=np.complex128)
    else:
        t, z, k = reorder_schur(t, z, select, scale)
        y, s, info = lapack.ztrsyl(t[:k, :k], t[k:, k:], t[:k, k:], isgn=-1)
        if info < 0:
            raise NumericalFailure(f"ztrsyl failed with info={info}")
        p = z[:, :k] @ np.hstack([np.eye(k), y / s]) @ z.conj().T
    return SpectralIdempotent(matrix=p, cluster=cluster)


def dunford(a) -> DunfordDecomposition:
    """Dunford (Jordan-Chevalley) decomposition of A from its cluster idempotents."""
    a = linalg.as_matrix(a)
    idempotents = tuple(spectral_idempotent(a, c) for c in eigen_clusters(a))
    d = np.zeros_like(a)
    for p in idempotents:
        d += p.cluster.representative * p.matrix
    n = a - d
    bound = max(linalg.norm2(p.matrix) for p in idempotents)
    return DunfordDecomposition(
        matrix=a,
        scalar_part=d,
        nilpotent_part=n,
        idempotents=idempotents,
        condition_bound=float(bound),
    )
