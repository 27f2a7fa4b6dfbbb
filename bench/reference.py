"""Reference answers computed with numpy alone, never with satk.

Every input the benchmark hands to satk is built from known spectral data:
eigenvalues ``lam`` paired with the columns of a basis ``v`` of generalized
eigenvectors (``A v = v (diag(lam) + N)`` with ``N`` nilpotent inside blocks of
equal eigenvalues).  From that data alone:

* the discrete limit ``K = sum_j a_j (F_j - F_{j-1})``, where ``F_j`` projects
  orthogonally onto the span of the columns whose ``|lam| <= a_j``;
* the continuous limit ``sum_j exp(b_j) (G_j - G_{j-1})``, with levels
  ``b_j`` the distinct real parts;
* the growth exponent of ``x = v c``: the largest level among the ``lam_i``
  with ``c_i != 0``;
* the known verdicts on the four weighted-shift kinds.
"""

from __future__ import annotations

import numpy as np

# Levels closer than this (relative to the largest) are one level.  Inputs are
# built with exactly equal or clearly separated levels, so any value between
# rounding (1e-16) and the smallest real gap (1e-2) gives the same grouping.
LEVEL_TOL = 1e-9
# A coefficient this small (relative to the largest) does not count as present.
COEFF_TOL = 1e-9


def level_values(keys) -> np.ndarray:
    """Distinct values of ``keys``, ascending, merging ties within LEVEL_TOL."""
    keys = np.sort(np.asarray(keys, dtype=float))
    tol = LEVEL_TOL * max(1.0, float(np.max(np.abs(keys))))
    out = [keys[0]]
    for x in keys[1:]:
        if x - out[-1] > tol:
            out.append(x)
    return np.array(out)


def _span_projector(cols) -> np.ndarray:
    q, _ = np.linalg.qr(cols)
    return q @ q.conj().T


def level_projections(keys, v):
    """(levels, projections): F_j onto span{v_i : keys_i <= level_j}; F_top = I."""
    keys = np.asarray(keys, dtype=float)
    v = np.asarray(v, dtype=np.complex128)
    levels = level_values(keys)
    tol = LEVEL_TOL * max(1.0, float(np.max(np.abs(keys))))
    projections = [_span_projector(v[:, keys <= b + tol]) for b in levels[:-1]]
    projections.append(np.eye(v.shape[0], dtype=np.complex128))
    return levels, projections


def weighted_resolution(weights, projections) -> np.ndarray:
    """sum_j w_j (F_j - F_{j-1}), symmetrized."""
    m = projections[0].shape[0]
    k = np.zeros((m, m), dtype=np.complex128)
    prev = np.zeros((m, m), dtype=np.complex128)
    for w, f in zip(weights, projections):
        k += w * (f - prev)
        prev = f
    return 0.5 * (k + k.conj().T)


def discrete_limit(lam, v) -> np.ndarray:
    """lim |A^n|^(1/n) from the eigenvalues and their generalized eigenvectors."""
    levels, projections = level_projections(np.abs(lam), v)
    return weighted_resolution(levels, projections)


def continuous_limit(lam, v) -> np.ndarray:
    """lim |exp(tA)|^(1/t) from the eigenvalues and their generalized eigenvectors."""
    levels, projections = level_projections(np.real(lam), v)
    return weighted_resolution(np.exp(levels), projections)


def vector_exponents(keys, v, xs) -> np.ndarray:
    """For each column x = v c of ``xs``: max{keys_i : c_i != 0}."""
    keys = np.asarray(keys, dtype=float)
    c = np.abs(np.linalg.solve(np.asarray(v, dtype=np.complex128), xs))
    present = c > COEFF_TOL * c.max(axis=0, keepdims=True)
    return np.array([keys[present[:, j]].max() for j in range(c.shape[1])])


def descending_moduli(lam) -> np.ndarray:
    """Yamamoto's limits: the eigenvalue moduli in descending order."""
    return np.sort(np.abs(np.asarray(lam)))[::-1]


def spectral_data_residual(a, lam, v) -> float:
    """How far ``v^-1 A v`` is from diag(lam) plus a nilpotent part inside
    blocks of equal eigenvalues (relative to ||A||); 0 for exact data."""
    lam = np.asarray(lam, dtype=np.complex128)
    t = np.linalg.solve(v, a @ v) - np.diag(lam)
    allowed = np.triu(lam[:, None] == lam[None, :], k=1)
    return float(np.abs(np.where(allowed, 0.0, t)).max() / max(1.0, np.abs(a).max()))


def shift_facts(kind: str, level: float = 0.0) -> dict:
    """Known behaviour of |S^n|^(1/n) for the weighted shift kinds.

    Constant weights c give the constant mean table c; blocks of c and 1/c on
    lengths 1, 2, 4, ... keep the tail means oscillating; harmonic and
    geometric weights tend to 0, so the means converge (to 0).  The backward
    shift's sequence converges exactly when the weights tend to 0.
    """
    facts = {
        "harmonic": {"converged": True, "backward_converges": True},
        "geometric": {"converged": True, "backward_converges": True},
        "constant": {"converged": True, "backward_converges": False, "alpha": level},
        "blocks": {"converged": False, "backward_converges": False},
    }
    return facts[kind]
