"""Dense complex linear-algebra kernels: validation, SVD, norms and range projections.

All operations act on square ``numpy`` arrays of ``complex128`` and are pure:
inputs are never mutated and results are freshly allocated.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidInput


def as_matrix(a) -> np.ndarray:
    """Validate and return a square, finite complex matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise InvalidInput("matrix has non-finite entries")
    return m


def svd(a, compute_uv: bool = True):
    """``np.linalg.svd(a, compute_uv=compute_uv)``, bytes included, without numpy's gufunc layer.

    Complex input goes straight to LAPACK's ``zgesdd`` with job ``'A'`` (or
    ``'N'``), the routine and job numpy calls; U and V* come back C-ordered,
    as numpy's do.  Other dtypes take numpy's own call.
    """
    a = np.asarray(a)
    if a.dtype != np.complex128:
        return np.linalg.svd(a, compute_uv=compute_uv)
    u, s, vh, info = lapack.zgesdd(a, compute_uv=int(compute_uv))
    if info:
        raise np.linalg.LinAlgError("SVD did not converge")
    if not compute_uv:
        return s
    return np.ascontiguousarray(u), s, np.ascontiguousarray(vh)


def norm2(a) -> float:
    """Spectral norm: the largest singular value, as ``np.linalg.norm(a, 2)`` computes it."""
    return float(svd(a, compute_uv=False)[0])


def default_rank_tol(m: int) -> float:
    """Relative numerical-rank threshold: m * eps, applied to the largest singular value."""
    return m * np.finfo(float).eps


def range_projection(t, rank_tol: float | None = None) -> np.ndarray:
    """Orthogonal projection onto the range of T (left singular vectors above the rank cut)."""
    t = as_matrix(t)
    u, s, _ = svd(t)
    if s[0] == 0.0:
        return np.zeros_like(t)
    rtol = rank_tol if rank_tol is not None else default_rank_tol(t.shape[0])
    r = int(np.count_nonzero(s > rtol * s[0]))
    ur = u[:, :r]
    return ur @ ur.conj().T


def matrix_rank(t, rank_tol: float | None = None) -> int:
    """Numerical rank: the trace of :func:`range_projection`, under its cut."""
    return int(round(np.trace(range_projection(t, rank_tol)).real))
