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

from . import linalg
from .decomp import DunfordDecomposition, EigenCluster, SpectralIdempotent
from .errors import InvalidInput, real_number
from .mmio import MAX_DIM

_MAX_MODULUS = 1.0
_MIN_RATIO = 1.3  # consecutive distinct moduli differ by at least this
_NILPOTENT_DENSITY = 0.6  # chance a multiplicity-2 block gets a nilpotent entry
_NILPOTENT_SCALE = 0.002
_PERTURBATION = 0.08  # S = I + _PERTURBATION * R
_COND_CAP = 100.0


@dataclass(frozen=True)
class InstanceSpec:
    dim: int = 4
    repeat_prob: float = 0.35  # chance a level carries multiplicity 2
    shared_modulus_prob: float = 0.2  # chance two eigenvalues share one modulus
    min_real_gap: float = 0.0  # enforce pairwise separation of eigenvalue real parts

    def validate(self):
        if type(self.dim) is not int or not 1 <= self.dim <= MAX_DIM:
            raise InvalidInput(f"dim must be an integer in [1, {MAX_DIM}], got {self.dim!r}")
        for name in ("repeat_prob", "shared_modulus_prob", "min_real_gap"):
            real_number(getattr(self, name), name)


@dataclass(frozen=True)
class Instance:
    decomposition: DunfordDecomposition
    generalized_eigenvectors: np.ndarray  # columns, paired with `eigenvalues`

    @property
    def matrix(self) -> np.ndarray:
        return self.decomposition.matrix

    @property
    def eigenvalues(self) -> tuple:
        """The cluster members, in block order."""
        return tuple(z for p in self.decomposition.idempotents for z in p.cluster.members)


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
    modulus = _MAX_MODULUS
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
        modulus /= _MIN_RATIO * rng.uniform(1.0, 1.4)
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
        if mult == 2 and rng.random() < _NILPOTENT_DENSITY:
            nilpotent[pos, pos + 1] = _NILPOTENT_SCALE * np.exp(
                1j * rng.uniform(0.0, 2 * np.pi)
            )
        pos += mult
    lam_mat = np.diag(np.array(diag, dtype=np.complex128))

    delta = _PERTURBATION
    while True:
        r = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        s = np.eye(m, dtype=np.complex128) + delta * r / np.sqrt(m)
        sv = linalg.svd(s, compute_uv=False)
        if sv[0] / sv[-1] <= _COND_CAP:  # np.linalg.cond(s)
            break
        delta *= 0.5

    s_inv = np.linalg.inv(s)
    a = s_inv @ (lam_mat + nilpotent) @ s

    idempotents = []
    for start, mult, lam in blocks:
        e = np.zeros((m, m), dtype=np.complex128)
        e[start : start + mult, start : start + mult] = np.eye(mult)
        lam = complex(lam)
        idempotents.append(SpectralIdempotent(s_inv @ e @ s, EigenCluster(lam, (lam,) * mult)))
    return Instance(DunfordDecomposition(a, tuple(idempotents)), s_inv)
