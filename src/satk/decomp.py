"""Eigenvalue clustering, spectral idempotents, and the Dunford decomposition A = D + N."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import linalg
from .errors import IllConditioned, InvalidInput, NumericalFailure

def default_cluster_tol(a) -> float:
    return 1e-6 * max(1.0, linalg.norm2(a))


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


def eigen_clusters(a, cluster_tol: float | None = None) -> list:
    """Single-linkage clustering of the computed eigenvalues of A.

    Clusters are returned sorted by (Re, Im) of their representatives and are
    pairwise separated by more than ``cluster_tol``.
    """
    a = linalg.as_matrix(a)
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(a)
    if cluster_tol <= 0:
        raise InvalidInput("cluster_tol must be positive")
    try:
        eigvals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc

    # Union-find single linkage on the m <= a few dozen eigenvalues.
    m = len(eigvals)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(eigvals[i] - eigvals[j]) <= cluster_tol:
                parent[find(i)] = find(j)

    groups: dict[int, list[complex]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(complex(eigvals[i]))
    clusters = [
        EigenCluster(
            representative=complex(np.mean(vals)),
            members=tuple(vals),
            multiplicity=len(vals),
        )
        for vals in groups.values()
    ]
    clusters.sort(key=lambda c: (c.representative.real, c.representative.imag))
    return clusters


def _ordered_schur_projector(a, in_cluster) -> np.ndarray:
    """Spectral projector via ordered Schur form and a Sylvester block decoupling."""
    t, z, sdim = scipy.linalg.schur(a, output="complex", sort=in_cluster)
    m = a.shape[0]
    if sdim == 0:
        return np.zeros_like(a)
    if sdim == m:
        return np.eye(m, dtype=np.complex128)
    t11 = t[:sdim, :sdim]
    t22 = t[sdim:, sdim:]
    t12 = t[:sdim, sdim:]
    try:
        # Y solves T11 Y - Y T22 = T12, making [[I, Y], [0, 0]] commute with T.
        y = scipy.linalg.solve_sylvester(t11, -t22, t12)
    except Exception as exc:
        raise IllConditioned(f"Sylvester decoupling failed: {exc}") from exc
    residual = np.linalg.norm(t11 @ y - y @ t22 - t12, 2)
    scale = max(1.0, np.linalg.norm(t12, 2))
    if not np.isfinite(residual) or residual > 1e-6 * scale * max(1.0, np.linalg.norm(y, 2)):
        raise IllConditioned(
            "cluster separation is too ill-conditioned", residual=float(residual)
        )
    pt = np.zeros((m, m), dtype=np.complex128)
    pt[:sdim, :sdim] = np.eye(sdim)
    pt[:sdim, sdim:] = y
    return z @ pt @ z.conj().T


def spectral_idempotent(a, cluster: EigenCluster, cluster_tol: float | None = None) -> SpectralIdempotent:
    """Idempotent onto the generalized eigenspace of ``cluster``."""
    a = linalg.as_matrix(a)
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(a)
    members = np.array(cluster.members)

    def in_cluster(z):
        return bool(np.min(np.abs(members - z)) <= cluster_tol)

    p = _ordered_schur_projector(a, in_cluster)
    return SpectralIdempotent(matrix=p, cluster=cluster)


def dunford(a, cluster_tol: float | None = None) -> DunfordDecomposition:
    """Dunford (Jordan-Chevalley) decomposition of A from its cluster idempotents."""
    a = linalg.as_matrix(a)
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(a)
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
