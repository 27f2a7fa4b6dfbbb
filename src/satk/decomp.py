"""Eigenvalue clustering, spectral idempotents, and the Dunford decomposition A = D + N.

All of them come from one complex Schur form A = Z T Z* per matrix: the
eigenvalues are the diagonal of T, and a cluster's idempotent comes from T
reordered to put the cluster first and one triangular Sylvester solve.
``reorder_schur`` makes every split of T, here and in ``satk.resolution``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import IllConditioned, InvalidInput, NumericalFailure
from .linalg import lapack

# A split of the Schur form is refused when sep(T11, T22) is below
# SEP_FLOOR * ||A||: the error of its invariant subspace is about
# eps * ||A|| / sep (Stewart 1973), which this keeps under 1e-6 at every scale.
SEP_FLOOR = 1e-10
# Eigenvalues (and level keys) within CLUSTER_TOL * ||A|| are one spectral point.
CLUSTER_TOL = 1e-6


@dataclass(frozen=True)
class EigenCluster:
    """One group of computed eigenvalues treated as a single spectral point."""

    representative: complex
    members: tuple

    @property
    def multiplicity(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SpectralIdempotent:
    """Projection onto a generalized eigenspace along its complement."""

    matrix: np.ndarray
    cluster: EigenCluster


@dataclass(frozen=True)
class DunfordDecomposition:
    """A = D + N with D scalar (diagonalizable), N nilpotent, DN = ND, given
    by A and its cluster idempotents: D = sum of representative * P, in
    idempotent order, and N = A - D.  Each read of a part forms a fresh array."""

    matrix: np.ndarray
    idempotents: tuple

    @property
    def scalar_part(self) -> np.ndarray:
        d = np.zeros_like(self.matrix)
        for p in self.idempotents:
            d += p.cluster.representative * p.matrix
        return d

    @property
    def nilpotent_part(self) -> np.ndarray:
        return self.matrix - self.scalar_part

    @property
    def condition_bound(self) -> float:
        """max ||P||_2 over the idempotents."""
        return max(linalg.norm2(p.matrix) for p in self.idempotents)


@linalg.matrix_memo(maxsize=8)
def schur_form(a):
    """(T, Z, ||A||) with A = Z T Z*, by LAPACK zgees, computed once per matrix."""
    t, _, _, z, _, info = lapack.zgees(lambda w: 0, a)
    if info != 0:
        raise NumericalFailure(f"zgees failed with info={info}")
    return t, z, linalg.norm2(a)


def reorder_schur(t, z, select, scale: float):
    """(T, Z, k): the Schur form reordered by ztrsen to put the k selected
    diagonal entries first.  Refused with IllConditioned(residual=sep) when
    sep(T11, T22) < SEP_FLOOR * scale."""
    m = t.shape[0]
    k = int(np.count_nonzero(select))
    t, z, _, _, _, sep, info = lapack.ztrsen(select, t, z, "V", 1, max(1, 2 * k * (m - k)))
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


def cluster_means(values, groups) -> np.ndarray:
    """``np.mean`` of ``values`` (a real or complex array) over each index
    group, to the bit; InvalidInput when a mean leaves float range."""
    # np.mean is its sum divided by the count.  The sum starts from +0, so a
    # singleton's mean is its value plus +0.
    means = values[[g[0] for g in groups]] + 0
    for n, g in enumerate(groups):
        if len(g) > 1:
            with np.errstate(over="ignore", invalid="ignore"):
                means[n] = np.add.reduce(values[g]) / len(g)
    if not np.isfinite(means).all():
        g = groups[int(np.argmin(np.isfinite(means)))]
        raise InvalidInput(
            f"the mean of the {len(g)} clustered values near {values[g[0]]:.6g} leaves float range"
        )
    return means


def eigen_clusters(a) -> list:
    """Single-linkage clustering of the eigenvalues of A (the Schur diagonal).

    Clusters are returned sorted by (Re, Im) of their representatives and are
    pairwise separated by more than ``CLUSTER_TOL * ||A||``.  A representative
    is its cluster's mean, refused when it leaves float range.
    """
    t, _, scale = schur_form(a)
    eigvals = t.diagonal()
    members = eigvals.tolist()
    groups = single_linkage(members, CLUSTER_TOL * scale)
    reps = cluster_means(eigvals, groups).tolist()
    clusters = [EigenCluster(rep, tuple(members[i] for i in g)) for rep, g in zip(reps, groups)]
    clusters.sort(key=lambda c: (c.representative.real, c.representative.imag))
    return clusters


def spectral_idempotent(a, cluster: EigenCluster) -> SpectralIdempotent:
    """Idempotent onto the generalized eigenspace of ``cluster``, the Schur
    diagonal entries within ``CLUSTER_TOL * ||A||`` of its members: T
    reordered to [[T11, T12], [0, T22]] with them in T11, ztrsyl solves
    T11 Y - Y T22 = T12, and Z [[I, Y], [0, 0]] Z* commutes with A."""
    t, z, scale = schur_form(a)
    gaps = np.abs(t.diagonal()[:, None] - np.array(cluster.members)[None, :])
    select = gaps.min(axis=1) <= CLUSTER_TOL * scale
    m, k = t.shape[0], int(np.count_nonzero(select))
    if k == 0 or k == m:
        p = np.eye(m, dtype=np.complex128) if k else np.zeros((m, m), dtype=np.complex128)
    else:
        t, z, k = reorder_schur(t, z, select, scale)
        y, s, info = lapack.ztrsyl(t[:k, :k], t[k:, k:], t[:k, k:], "N", "N", -1)
        if info < 0:
            raise NumericalFailure(f"ztrsyl failed with info={info}")
        w = np.eye(k, m, dtype=np.complex128)  # [I, Y]
        w[:, k:] = y / s
        p = z[:, :k] @ w @ z.conj().T
    return SpectralIdempotent(matrix=p, cluster=cluster)


@linalg.matrix_memo(maxsize=8)
def dunford(a) -> DunfordDecomposition:
    """Dunford (Jordan-Chevalley) decomposition of A: its cluster
    idempotents, computed once per matrix.  It holds a copy of A, never A."""
    return DunfordDecomposition(a, tuple(spectral_idempotent(a, c) for c in eigen_clusters(a)))
