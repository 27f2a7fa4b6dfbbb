"""Eigenvalue clustering, spectral idempotents, and the Dunford decomposition A = D + N.

All of them come from one complex Schur form A = Z T Z* per matrix: the
eigenvalues are the diagonal of T, and a cluster's idempotent comes from T
reordered to put the cluster first and one triangular Sylvester solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from . import linalg
from .errors import IllConditioned, InvalidInput, NumericalFailure


def default_cluster_tol(norm: float) -> float:
    """Eigenvalues (and level keys) this close, for ||A|| = norm, are one spectral point."""
    return 1e-6 * max(1.0, norm)


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
    """(T, Z) with A = Z T Z* for the m x m matrix with a.tobytes() == key,
    by LAPACK zgees.  Shared through this memo, so the arrays are read-only."""
    a = np.frombuffer(key, dtype=np.complex128).reshape(m, m)
    t, _, _, z, _, info = lapack.zgees(lambda w: 0, a)
    if info != 0:
        raise NumericalFailure(f"zgees failed with info={info}")
    t.flags.writeable = False
    z.flags.writeable = False
    return t, z


def schur_form(a):
    """The complex Schur form (T, Z) of A = Z T Z*, computed once per matrix."""
    return _schur_form(a.tobytes(), a.shape[0])


def single_linkage(values, tol: float) -> list[list[int]]:
    """Index groups of the (real or complex) values, chained by |v_i - v_j| <= tol."""
    groups: list[list[int]] = []
    for i, v in enumerate(values):
        near = [g for g in groups if any(abs(v - values[j]) <= tol for j in g)]
        groups = [g for g in groups if g not in near] + [sorted([i, *(j for g in near for j in g)])]
    return groups


def eigen_clusters(a, cluster_tol: float | None = None) -> list:
    """Single-linkage clustering of the eigenvalues of A (the Schur diagonal).

    Clusters are returned sorted by (Re, Im) of their representatives and are
    pairwise separated by more than ``cluster_tol``.
    """
    a = linalg.as_matrix(a)
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(linalg.norm2(a))
    if cluster_tol <= 0:
        raise InvalidInput("cluster_tol must be positive")
    eigvals = [complex(z) for z in schur_form(a)[0].diagonal()]
    groups = [[eigvals[i] for i in g] for g in single_linkage(eigvals, cluster_tol)]
    clusters = [EigenCluster(complex(np.mean(vals)), tuple(vals), len(vals)) for vals in groups]
    clusters.sort(key=lambda c: (c.representative.real, c.representative.imag))
    return clusters


def _reordered_projector(t, z, select) -> np.ndarray:
    """Projector onto the selected Schur diagonal entries: ztrsen reorders T to
    [[T11, T12], [0, T22]] with them in T11, ztrsyl solves T11 Y - Y T22 = T12,
    and Z [[I, Y], [0, 0]] Z* commutes with A."""
    m = t.shape[0]
    k = int(np.count_nonzero(select))
    if k == 0:
        return np.zeros((m, m), dtype=np.complex128)
    if k == m:
        return np.eye(m, dtype=np.complex128)
    t, z, _, _, _, _, info = lapack.ztrsen(select, t, z, job="N")
    if info != 0:
        raise NumericalFailure(f"ztrsen failed with info={info}")
    t11, t12, t22 = t[:k, :k], t[:k, k:], t[k:, k:]
    y, scale, info = lapack.ztrsyl(t11, t22, t12, isgn=-1)
    if info < 0:
        raise NumericalFailure(f"ztrsyl failed with info={info}")
    y = y / scale
    residual = np.linalg.norm(t11 @ y - y @ t22 - t12, 2)
    bound = 1e-6 * max(1.0, np.linalg.norm(t12, 2)) * max(1.0, np.linalg.norm(y, 2))
    if not np.isfinite(residual) or residual > bound:
        raise IllConditioned("cluster separation is too ill-conditioned", residual=float(residual))
    return z[:, :k] @ np.hstack([np.eye(k), y]) @ z.conj().T


def spectral_idempotent(a, cluster: EigenCluster, cluster_tol: float | None = None) -> SpectralIdempotent:
    """Idempotent onto the generalized eigenspace of ``cluster``: the Schur
    diagonal entries within ``cluster_tol`` of its members."""
    a = linalg.as_matrix(a)
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(linalg.norm2(a))
    t, z = schur_form(a)
    gaps = np.abs(t.diagonal()[:, None] - np.array(cluster.members)[None, :])
    p = _reordered_projector(t, z, gaps.min(axis=1) <= cluster_tol)
    return SpectralIdempotent(matrix=p, cluster=cluster)


def dunford(a, cluster_tol: float | None = None) -> DunfordDecomposition:
    """Dunford (Jordan-Chevalley) decomposition of A from its cluster idempotents."""
    a = linalg.as_matrix(a)
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(linalg.norm2(a))
    clusters = eigen_clusters(a, cluster_tol)
    idempotents = tuple(spectral_idempotent(a, c, cluster_tol) for c in clusters)
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
