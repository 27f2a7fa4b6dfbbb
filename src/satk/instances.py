"""Deterministic random instances with certified ground-truth decompositions.

An instance is A = S^-1 (Lambda + N0) S: Lambda diagonal with moduli drawn
from a gapped grid, N0 strictly upper triangular and supported inside
equal-eigenvalue blocks (so Lambda and N0 commute), and S a bounded-condition
perturbation of the identity.  The exact Dunford decomposition is returned
alongside, giving every downstream suite an oracle that never touches the
numerical decomposition path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomp import DunfordDecomposition, EigenCluster, SpectralIdempotent
from .errors import InvalidInput


@dataclass(frozen=True)
class InstanceSpec:
    dim: int = 4
    max_modulus: float = 1.0
    min_ratio: float = 1.3  # consecutive distinct moduli differ by at least this
    repeat_prob: float = 0.35  # chance a level carries multiplicity 2
    shared_modulus_prob: float = 0.2  # chance two eigenvalues share one modulus
    nilpotent_density: float = 0.6  # chance a multiplicity-2 block gets a nilpotent entry
    nilpotent_scale: float = 0.002
    perturbation: float = 0.08  # S = I + perturbation * R
    cond_cap: float = 100.0
    min_real_gap: float = 0.0  # enforce pairwise separation of eigenvalue real parts

    def validate(self):
        if self.dim < 1:
            raise InvalidInput("dim must be at least 1")
        if self.min_ratio < 1.25:
            raise InvalidInput("min_ratio must be at least 1.25")
        if self.max_modulus <= 0:
            raise InvalidInput("max_modulus must be positive")
        if self.cond_cap < 1:
            raise InvalidInput("cond_cap must be at least 1")


@dataclass(frozen=True)
class Instance:
    matrix: np.ndarray
    decomposition: DunfordDecomposition
    eigenvalues: tuple
    generalized_eigenvectors: np.ndarray  # columns, paired with `eigenvalues`
    similarity: np.ndarray
    seed: int
    spec: InstanceSpec


def _multiplicities(rng, dim, repeat_prob):
    out = []
    remaining = dim
    while remaining:
        if remaining >= 2 and rng.random() < repeat_prob:
            out.append(2)
            remaining -= 2
        else:
            out.append(1)
            remaining -= 1
    return out


def _level_eigenvalues(rng, spec, levels):
    """Distinct eigenvalues, one per level, moduli descending on a gapped grid."""
    eigs = []
    modulus = spec.max_modulus
    i = 0
    while i < len(levels):
        share = (
            i + 1 < len(levels)
            and rng.random() < spec.shared_modulus_prob
        )
        phase = rng.uniform(0.0, 2 * np.pi)
        eigs.append(modulus * np.exp(1j * phase))
        if share:
            # second eigenvalue on the same disc, phase well separated
            eigs.append(modulus * np.exp(1j * (phase + rng.uniform(0.7, 2 * np.pi - 0.7))))
            i += 1
        modulus /= spec.min_ratio * rng.uniform(1.0, 1.4)
        i += 1
    return eigs


def generate_instance(seed: int, spec: InstanceSpec | None = None) -> Instance:
    """Deterministic certified instance for the given seed."""
    spec = spec or InstanceSpec()
    spec.validate()
    rng = np.random.default_rng(seed)
    m = spec.dim

    for _ in range(1000):
        mults = _multiplicities(rng, m, spec.repeat_prob)
        eigs = _level_eigenvalues(rng, spec, mults)
        if spec.min_real_gap <= 0.0:
            break
        reals = sorted(z.real for z in eigs)
        if all(b - a >= spec.min_real_gap for a, b in zip(reals, reals[1:])):
            break
    else:
        raise InvalidInput("could not satisfy min_real_gap; relax the spec")

    diag = []
    nilpotent = np.zeros((m, m), dtype=np.complex128)
    pos = 0
    blocks = []  # (start, mult, eigenvalue)
    for mult, lam in zip(mults, eigs):
        blocks.append((pos, mult, lam))
        diag.extend([lam] * mult)
        if mult == 2 and rng.random() < spec.nilpotent_density:
            nilpotent[pos, pos + 1] = spec.nilpotent_scale * np.exp(
                1j * rng.uniform(0.0, 2 * np.pi)
            )
        pos += mult
    lam_mat = np.diag(np.array(diag, dtype=np.complex128))

    delta = spec.perturbation
    while True:
        r = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        s = np.eye(m, dtype=np.complex128) + delta * r / np.sqrt(m)
        if np.linalg.cond(s) <= spec.cond_cap:
            break
        delta *= 0.5

    s_inv = np.linalg.inv(s)
    scalar = s_inv @ lam_mat @ s
    a = s_inv @ (lam_mat + nilpotent) @ s

    idempotents = []
    for start, mult, lam in blocks:
        e = np.zeros((m, m), dtype=np.complex128)
        e[start : start + mult, start : start + mult] = np.eye(mult)
        idempotents.append(
            SpectralIdempotent(
                matrix=s_inv @ e @ s,
                cluster=EigenCluster(
                    representative=complex(lam),
                    members=(complex(lam),) * mult,
                    multiplicity=mult,
                ),
            )
        )
    bound = max(np.linalg.norm(p.matrix, 2) for p in idempotents)
    dec = DunfordDecomposition(
        matrix=a,
        scalar_part=scalar,
        nilpotent_part=a - scalar,
        idempotents=tuple(idempotents),
        condition_bound=float(bound),
    )
    return Instance(
        matrix=a,
        decomposition=dec,
        eigenvalues=tuple(complex(z) for z in diag),
        generalized_eigenvectors=s_inv,
        similarity=s,
        seed=int(seed),
        spec=spec,
    )
