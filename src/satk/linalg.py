"""Dense complex linear-algebra kernels and the operator-inequality toolbox.

All operations act on square ``numpy`` arrays of ``complex128`` and are pure:
inputs are never mutated and results are freshly allocated.  Loewner-order
comparisons are decided by the smallest eigenvalue of the difference, never
entrywise.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

# Tolerance defaults.  PSD_TOL is the relative slack allowed for roundoff
# negativity; HERM_TOL bounds the skew part accepted by hermitian routines.
PSD_TOL = 1e-10
HERM_TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Validate and return a square, finite complex matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise InvalidInput("matrix has non-finite entries")
    return m


def as_hermitian(a, tol: float = HERM_TOL) -> np.ndarray:
    """Validate hermitianness (relative max-norm) and return the symmetrized matrix."""
    m = as_matrix(a)
    scale = max(1.0, np.abs(m).max())
    if np.abs(m - m.conj().T).max() > tol * scale:
        raise InvalidInput("matrix is not hermitian within tolerance")
    return 0.5 * (m + m.conj().T)


def norm2(a) -> float:
    """Spectral norm."""
    return float(np.linalg.norm(np.asarray(a), 2))


def default_rank_tol(m: int) -> float:
    """Relative numerical-rank threshold: m * eps, applied to the largest singular value."""
    return m * np.finfo(float).eps


def abs_op(t) -> np.ndarray:
    """The operator absolute value |T| = (T*T)^(1/2), via the SVD of T."""
    t = as_matrix(t)
    u, s, vh = np.linalg.svd(t)
    return vh.conj().T @ (s[:, None] * vh)


def psd_power(h, p: float, rank_tol: float | None = None) -> np.ndarray:
    """Eigenvalue power H^p of a PSD matrix, with 0^p := 0.

    Eigenvalues below ``rank_tol * lambda_max`` are treated as exact zeros so
    fractional powers do not resurrect numerical noise.
    """
    if p <= 0:
        raise InvalidInput(f"exponent must be positive, got {p}")
    h = as_hermitian(h)
    w, v = np.linalg.eigh(h)
    cut = (rank_tol if rank_tol is not None else default_rank_tol(h.shape[0])) * max(
        w[-1], 0.0
    )
    w = np.where(w > cut, w, 0.0)
    pw = np.zeros_like(w)
    np.power(w, p, out=pw, where=w > 0)
    return (v * pw) @ v.conj().T


def loewner_leq(a, b, tol: float = PSD_TOL) -> bool:
    """Whether A <= B in the Loewner order, up to ``tol`` on the smallest eigenvalue."""
    a = as_hermitian(a)
    b = as_hermitian(b)
    if a.shape != b.shape:
        raise InvalidInput(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.eigvalsh(b - a)[0]) >= -tol


def range_projection(t, rank_tol: float | None = None) -> np.ndarray:
    """Orthogonal projection onto the range of T (left singular vectors above the rank cut)."""
    t = as_matrix(t)
    u, s, _ = np.linalg.svd(t)
    if s[0] == 0.0:
        return np.zeros_like(t)
    rtol = rank_tol if rank_tol is not None else default_rank_tol(t.shape[0])
    r = int(np.count_nonzero(s > rtol * s[0]))
    ur = u[:, :r]
    return ur @ ur.conj().T


def matrix_rank(t, rank_tol: float | None = None) -> int:
    """Numerical rank: the trace of :func:`range_projection`, under its cut."""
    return int(round(np.trace(range_projection(t, rank_tol)).real))


def weighted_psd_sum_root(terms, n: int) -> np.ndarray:
    """(sum_i a_i^n H_i)^(1/n) for strictly increasing weights a_1 < ... < a_k >= 0.

    The top weight is factored out before summation so a_i^n never leaves the
    float range; the surviving ratios (a_i/a_k)^n underflow harmlessly to 0.
    """
    if n < 1 or int(n) != n:
        raise InvalidInput(f"n must be a positive integer, got {n}")
    weights = [float(a) for a, _ in terms]
    if not terms:
        raise InvalidInput("need at least one (weight, matrix) term")
    if any(a < 0 for a in weights):
        raise InvalidInput("weights must be non-negative")
    if any(b <= a for a, b in zip(weights, weights[1:])):
        raise InvalidInput("weights must be strictly increasing")
    mats = [as_hermitian(h) for _, h in terms]
    dim = mats[0].shape[0]
    if any(h.shape[0] != dim for h in mats):
        raise InvalidInput("all matrices must share one dimension")
    top = weights[-1]
    if top == 0.0:
        return np.zeros((dim, dim), dtype=np.complex128)
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for a, h in zip(weights, mats):
        ratio = a / top
        if ratio > 0.0:
            with np.errstate(under="ignore"):
                acc += ratio**n * h
    return top * psd_power(acc, 1.0 / n)


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus."""
    a = as_matrix(a)
    return float(np.abs(np.linalg.eigvals(a)).max())
