"""Dense complex linear-algebra kernels: validation, exact vector scaling, the matrix memo, SVD, norms and range projections.

All operations act on ``numpy`` arrays of ``complex128``, square but for the
vectors of ``binary_scaled`` and ``binary_split``, and are pure: inputs are never mutated and
results are freshly allocated, except those of a ``matrix_memo``, which are
shared and read-only.

``lapack`` and ``blas`` are scipy's compiled f2py modules ``_flapack`` and
``_fblas``, the ones ``scipy.linalg.lapack`` and ``scipy.linalg.blas``
re-export, loaded from their files in scipy's ``linalg`` directory without
importing the ``scipy.linalg`` package, whose ``__init__`` costs a fresh
process a few hundred milliseconds (it imports ``numpy.f2py``,
``numpy.testing``, ``numpy.ma`` and ``numpy.random``).  Every LAPACK and BLAS
routine of satk is taken from these two names, and no command loads the
``scipy.linalg`` package: ``semigroup``'s matrix exponential is a Pade step
on ``lapack.zgesv``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.machinery
import importlib.util
import math
import os

import numpy as np

from .errors import InvalidInput


def _scipy_linalg_extension(name: str):
    """scipy's compiled module ``scipy.linalg.<name>``, run from its file on
    its own; ImportError naming it when scipy or the file is missing."""
    scipy = importlib.util.find_spec("scipy")  # finds the package without importing it
    path = [os.path.join(d, "linalg") for d in scipy.submodule_search_locations] if scipy else []
    spec = importlib.machinery.PathFinder.find_spec(name, path)
    if spec is None:
        raise ImportError(f"scipy.linalg.{name} not found in {path}", name=f"scipy.linalg.{name}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lapack = _scipy_linalg_extension("_flapack")
blas = _scipy_linalg_extension("_fblas")


def as_matrix(a) -> np.ndarray:
    """Validate and return a square, finite complex matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    m = np.ascontiguousarray(m)  # the float64 view needs a contiguous last axis
    if not np.isfinite(m.view(np.float64)).all():
        raise InvalidInput("matrix has non-finite entries")
    return m


def binary_scaled(x) -> np.ndarray:
    """x, each column (or x itself when 1-D) times the power of two that puts
    its largest real or imaginary part in [0.5, 1) in absolute value (a
    modulus can overflow where its parts do not).  The scaling is exact, so
    directions and norm ratios keep every bit while norms can no longer over-
    or underflow; zero columns stay zero.  A non-finite entry is refused."""
    x = np.asarray(x, dtype=np.complex128)
    if not np.isfinite(x).all():
        raise InvalidInput("vector has non-finite entries")
    return binary_split(x)[0]


def binary_split(x) -> tuple:
    """(u, e) with x = u * 2**e exactly: u is ``binary_scaled(x)`` and e its
    exponents, one per column (0 for a zero column).  x is a complex array,
    not checked for finiteness."""
    _, e = np.frexp(np.maximum(np.abs(x.real), np.abs(x.imag)).max(axis=0))
    out = np.empty_like(x)
    out.real, out.imag = np.ldexp(x.real, -e), np.ldexp(x.imag, -e)
    return out, e


def binary_unit(x) -> tuple:
    """(u, e) with x = u * 2**e, as ``binary_split`` over every entry of the
    complex array x at once: one int e, and a C-ordered u (0 and e = 0 at
    x = 0); a part that lands in the subnormals loses bits, as there."""
    parts = np.ascontiguousarray(x).view(np.float64)
    e = math.frexp(float(np.abs(parts).max()))[1]
    return np.ldexp(parts, -e).view(np.complex128), e


def matrix_memo(maxsize: int):
    """Memoize ``f(a, *args)`` by the complex bytes and shape of A and the hashable args.

    A miss calls f on ``as_matrix`` of the memo's own read-only copy of A, so
    f never holds the caller's array, an input is validated once, and its
    C- and F-ordered forms share an entry.  Every array reachable through the
    result's tuples and dataclass fields is made read-only, since each hit
    returns the same objects.  ``cache_info`` and ``cache_clear`` are the
    ``lru_cache``'s.
    """

    def freeze(x):
        if isinstance(x, np.ndarray):
            x.flags.writeable = False
        elif isinstance(x, tuple) or dataclasses.is_dataclass(x):
            for y in x if isinstance(x, tuple) else vars(x).values():
                if not isinstance(y, (int, float, complex)):  # a number holds no array
                    freeze(y)
        return x

    def decorate(f):
        @functools.lru_cache(maxsize=maxsize)
        def cached(key, shape, *args):
            return freeze(f(as_matrix(np.frombuffer(key, dtype=np.complex128).reshape(shape)), *args))

        @functools.wraps(f)
        def memo(a, *args):
            a = np.asarray(a, dtype=np.complex128)
            return cached(a.tobytes(), a.shape, *args)

        memo.cache_info, memo.cache_clear = cached.cache_info, cached.cache_clear
        return memo

    return decorate


def svd(a, compute_uv: bool = True):
    """``np.linalg.svd`` of A as ``complex128``, bytes included, without numpy's gufunc layer.

    A goes straight to LAPACK's ``zgesdd`` with job ``'A'`` (or ``'N'``), the
    routine and job numpy calls on a complex matrix; U and V* come back
    C-ordered, as numpy's do.
    """
    u, s, vh, info = lapack.zgesdd(np.asarray(a, dtype=np.complex128), int(compute_uv))
    if info:
        raise np.linalg.LinAlgError("SVD did not converge")
    if not compute_uv:
        return s
    return np.ascontiguousarray(u), s, np.ascontiguousarray(vh)


def norm2(a) -> float:
    """Spectral norm: the largest singular value, as ``np.linalg.norm(a, 2)`` computes it."""
    return float(svd(a, compute_uv=False)[0])


def range_projection(t) -> np.ndarray:
    """Orthogonal projection onto the range of T (left singular vectors above
    the rank cut m * eps * s_max)."""
    t = as_matrix(t)
    u, s, _ = svd(t)
    if s[0] == 0.0:
        return np.zeros_like(t)
    r = int(np.count_nonzero(s > t.shape[0] * np.finfo(float).eps * s[0]))
    ur = u[:, :r]
    return ur @ ur.conj().T


def matrix_rank(t) -> int:
    """Numerical rank: the trace of :func:`range_projection`, under its cut."""
    return int(round(np.trace(range_projection(t)).real))
