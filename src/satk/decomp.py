"""Eigenvalue clustering, spectral idempotents, and the Dunford decomposition A = D + N.

All of them come from one complex Schur form A = Z T Z* per matrix, whose diagonal
is clustered once, and from one reordering of it, ``ordered_schur`` (Bavely & Stewart
1979): the idempotents and the F_j of ``satk.resolution`` come from the same cuts.
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
    """(T, Z, ||A||) with A = Z T Z*, by zgees, once per matrix; InvalidInput for a non-finite ||A||."""
    scale = linalg.norm2(a)
    if not np.isfinite(scale):
        raise InvalidInput(f"the spectral norm ||A|| = {scale} leaves float range")
    t, _, _, z, _, info = lapack.zgees(lambda w: 0, a)
    if info != 0:
        raise NumericalFailure(f"zgees failed with info={info}")
    return t, z, scale


def reorder_schur(t, z, select, scale: float):
    """(T, Z, k): the Schur form reordered by ztrsen to put the k selected
    diagonal entries first.  Refused with IllConditioned(residual=sep) when
    sep(T11, T22) < SEP_FLOOR * scale."""
    m, k = t.shape[0], int(np.count_nonzero(select))
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
    """Index groups, by first index, of the array values chained by |v_i - v_j| <= tol; inf is apart."""
    with np.errstate(over="ignore"):
        near = (np.abs(values[:, None] - values[None, :]) <= tol).tolist()
    groups, seen = [], set()
    for i in range(len(near)):
        group = [] if i in seen else [i]
        seen.update(group)
        for u in group:  # the group grows while it is walked, to everything chained to i
            group += [v for v, close in enumerate(near[u]) if close and v not in seen]
            seen.update(group)
        if group:
            groups.append(sorted(group))
    return groups


def cluster_means(values, groups) -> np.ndarray:
    """``np.mean`` of ``values`` (a real or complex array) over each index
    group, to the bit where its sum stays in float range; InvalidInput when a
    mean leaves float range."""
    # np.mean is its sum divided by the count.  The sum starts from +0, so a
    # singleton's mean is its value plus +0.  Where the sum overflows, each
    # member is divided by the count first.
    means = values[[g[0] for g in groups]] + 0
    for n, g in enumerate(groups):
        if len(g) > 1:
            with np.errstate(over="ignore", invalid="ignore"):
                means[n] = np.add.reduce(values[g]) / len(g)
                if not np.isfinite(means[n]):
                    means[n] = np.add.reduce(values[g] / len(g))
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
    groups = single_linkage(eigvals, CLUSTER_TOL * scale)
    reps = cluster_means(eigvals, groups).tolist()
    clusters = [EigenCluster(rep, tuple(members[i] for i in g)) for rep, g in zip(reps, groups)]
    clusters.sort(key=lambda c: (c.representative.real, c.representative.imag))
    return clusters


@linalg.matrix_memo(maxsize=8)
def ordered_schur(a, key) -> tuple:
    """(clusters, idempotents, levels, F_j) of A's Schur form reordered once: by
    level (``key`` of the representatives, clustered), then by the (Re, Im) order
    of ``eigen_clusters`` that the first two keep.  Each diagonal entry's label
    follows T through the ztrsen cuts.  After b clusters ztrsyl gives their
    projector Z [[I, Y], [0, 0]] Z*, and a cut between levels F_j = Z_1 Z_1*,
    refused unless the keys below the midpoint are the labels below the cut."""
    t, z, scale = schur_form(a)
    clusters = eigen_clusters(a)
    values = key(np.array([c.representative for c in clusters]))
    groups = single_linkage(values, CLUSTER_TOL * scale)
    levels, groups = zip(*sorted(zip(cluster_means(values, groups).tolist(), groups)))
    order = [i for g in groups for i in g]
    place = {v: p for p, i in enumerate(order) for v in clusters[i].members}  # T's diagonal holds the members
    labels = np.array([place[v] for v in t.diagonal().tolist()])
    level_of = [j for j, g in enumerate(groups) for _ in g]  # the level of each place
    prefixes, projections = [np.zeros_like(t)], []
    for b in range(1, len(clusters)):
        select = labels < b
        t, z, k = reorder_schur(t, z, select, scale)
        labels = np.concatenate((labels[select], labels[~select]))
        y, s, info = lapack.ztrsyl(t[:k, :k], t[k:, k:], t[:k, k:], "N", "N", -1)
        if info < 0:
            raise NumericalFailure(f"ztrsyl failed with info={info}")
        w = np.eye(k, len(t), dtype=np.complex128)  # [I, Y]
        w[:, k:] = y / s
        prefixes.append(z[:, :k] @ w @ z.conj().T)
        if (j := level_of[b - 1]) < level_of[b]:  # a cut between levels
            below = key(t.diagonal()) <= 0.5 * levels[j] + 0.5 * levels[j + 1]  # no sum to overflow
            if below[k:].any() or not below[:k].all():
                raise IllConditioned(
                    f"cut above level {j + 1} of {len(levels)} ({levels[j]:.6g}) refused: "
                    f"{np.count_nonzero(below)} Schur eigenvalues below it for multiplicity {k}"
                )
            projections.append(z[:, :k] @ z[:, :k].conj().T)
    prefixes.append(np.eye(len(t), dtype=np.complex128))  # the last prefix and the top F_j: exactly all
    projections.append(prefixes[-1])
    steps = dict(zip(order, (hi - lo for lo, hi in zip(prefixes, prefixes[1:]))))  # idempotents by cluster
    return tuple(clusters), tuple(steps[i] for i in range(len(order))), levels, tuple(projections)


def spectral_idempotent(a, cluster: EigenCluster) -> SpectralIdempotent:
    """Idempotent onto the generalized eigenspace of ``cluster``, one of ``eigen_clusters(a)``."""
    clusters, idempotents, _, _ = ordered_schur(a, np.abs)
    return SpectralIdempotent(idempotents[clusters.index(cluster)], cluster)


@linalg.matrix_memo(maxsize=8)
def dunford(a) -> DunfordDecomposition:
    """Dunford (Jordan-Chevalley) decomposition of A: its cluster
    idempotents, computed once per matrix.  It holds a copy of A, never A."""
    return DunfordDecomposition(a, tuple(spectral_idempotent(a, c) for c in ordered_schur(a, np.abs)[0]))
