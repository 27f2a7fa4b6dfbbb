"""Numerically stable matrix powers, |A^n|^(1/n), Yamamoto limits, and vector growth rates.

Two representations are used depending on the dynamic range of A^n:

* a single scaled matrix ``exp(log_scale) * unit`` (binary exponentiation),
  exact while the singular spread of ``unit`` stays inside float range;
* a QR-accumulation flag run (one orthonormalization per multiply), whose
  per-direction log-magnitudes never overflow and resolve singular directions
  far below the float underflow threshold.

The second is required for n in the thousands: the smallest singular values of
A^n then lie hundreds of orders of magnitude below the largest and cannot be
carried by any single float64 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInput, positive_int
from .linalg import blas, lapack

# Exact (single scaled matrix) path is trusted while the singular spread of the
# unit matrix stays above this, keeping small singulars clear of the SVD noise
# floor eps * sigma_max.
_EXACT_SPREAD_FLOOR = 1e-12
_EXACT_N_MAX = 64
_COEFF_TOL = 1e-6
# A flag run steps by A^k only while the singular spread of A^k stays above
# this floor, and while the smallest singular value of A^k stays above the
# second, clear of subnormals: 1e-40 * [[1, 1], [0, 0.5]] has a subnormal A^8,
# and blocks of 8 put a 1.5e-3 relative error on its small level.
_BLOCK_SPREAD_FLOOR = 1e-6
_BLOCK_SINGULAR_FLOOR = 1e-290
# The most steps a flag run (or a propagator in satk.semigroup) takes: a run
# holds (n // k) x m complex diagonals, 512 MB at m = 8 and k = 1.
_MAX_STEPS = 2**22
# A matrix whose spectral norm is subnormal (below _TINY) is first multiplied
# by 2**_LIFT, exactly, which puts every subnormal norm in the normal range.
_TINY = np.finfo(float).tiny
_LIFT = 64


@dataclass(frozen=True)
class ScaledPower:
    """A^n = exp(log_scale) * unit with ||unit||_2 = 1 (or the zero matrix)."""

    unit: np.ndarray
    log_scale: float
    is_zero: bool = False


@dataclass(frozen=True)
class ConvergenceReport:
    errors: tuple  # one per n of the schedule, in its order


def scaled_power(a, n: int) -> ScaledPower:
    """A^n by binary exponentiation, renormalized to unit spectral norm per multiply."""
    return _scaled_powers(linalg.as_matrix(a), (positive_int(n),))[0]


def _scaled_powers(a, ns) -> list:
    """A^n as a ``ScaledPower`` for each n in ns, from one squaring chain.

    The chain base_0 = A/||A||, base_(i+1) = base_i @ base_i renormalized, is
    built once, to the top bit of max(ns), and stops at the first zero entry.
    Each n then multiplies the identity by the entries of its set bits, from
    the least significant up, renormalizing after each multiply: the same
    arithmetic for each n as powering it on its own.
    """

    def normalized(x, log):
        s = linalg.norm2(x)
        if 0.0 < s < _TINY:  # numpy divides by s through 1 / s, which overflows: lift x exactly first
            x, log = x * 2.0**_LIFT, log - _LIFT * np.log(2.0)
            s = linalg.norm2(x)
        if s == 0.0:
            return None
        return x / s, log + np.log(s)

    chain = [normalized(a, 0.0)]
    while chain[-1] is not None and len(chain) < max(ns).bit_length():
        base = chain[-1]
        chain.append(normalized(base[0] @ base[0], 2.0 * base[1]))
    out = []
    for n in ns:
        acc = (np.eye(a.shape[0], dtype=np.complex128), 0.0)
        for i in range(n.bit_length()):
            if chain[i] is None:
                acc = None
            elif n >> i & 1:
                acc = normalized(acc[0] @ chain[i][0], acc[1] + chain[i][1])
            if acc is None:
                break
        if acc is None:
            out.append(ScaledPower(unit=np.zeros_like(a), log_scale=0.0, is_zero=True))
        else:
            out.append(ScaledPower(unit=acc[0], log_scale=float(acc[1])))
    return out


# --- QR-accumulation flag runs ------------------------------------------------

def _flag_steps(a, q, diagonals):
    """len(diagonals) steps a @ q = q' r by LAPACK Householder QR; writes each
    step's r diagonal to its row of diagonals and returns the last q'.

    The product is numpy's ``a @ q`` bit for bit: numpy forms a row-major
    product as zgemm on the transposes, here ``zgemm(q, a.T)`` with
    ``trans_a`` on the F-contiguous view a.T, without matmul's dispatch,
    written into one F-ordered buffer reused by every step.  At m = 1 numpy
    takes its dot path instead, so that case keeps ``a @ q``.  Every call
    passes its arguments by position: f2py parses each keyword by name, a
    few tenths of a microsecond per call against LAPACK work of a few
    microseconds at dims 2-8.  lwork is f2py's own default, max(3 m, 1);
    a smaller one switches zgeqrf to its unblocked path from m = 129 and
    moves the bytes.  The routines are looked up per call, not at import,
    so a patched ``lapack`` is seen.
    """
    gemm, geqrf, ungqr = blas.zgemm, lapack.zgeqrf, lapack.zungqr
    m = q.shape[0]
    if m == 1:

        def gemm(_alpha, q, *_):
            return a @ q  # 1 x 1, so the loop's .T changes nothing

    at, c, lwork = a.T, np.empty((m, m), dtype=np.complex128, order="F"), max(3 * m, 1)
    for row in diagonals:
        qr, tau, _, info = geqrf(gemm(1.0, q, at, 0.0, c, 1, 0, 1).T, lwork, 1)
        if info != 0:
            raise np.linalg.LinAlgError(f"zgeqrf failed with info={info}")
        row[:] = qr.diagonal()
        q, _, info = ungqr(qr, tau, lwork, 1)
        if info != 0:
            raise np.linalg.LinAlgError(f"zungqr failed with info={info}")
    return q


def _log_sums(start, diagonals):
    """Row i is start plus log|r_jj| of steps 1..i (rows of diagonals), summed
    in step order: the sums a running ``logs + log|r_jj|`` makes.  Callers
    run under ``np.errstate(divide="ignore")``: a singular step gives
    log 0 = -inf."""
    logs = np.empty((len(diagonals) + 1, len(start)))
    logs[0] = start
    np.log(np.abs(diagonals), out=logs[1:])
    return np.add.accumulate(logs, axis=0)


def _block_power(a):
    """(k, A^k) for blocked flag steps: the largest k in (8, 4, 2) whose A^k
    is finite and has s_min >= _BLOCK_SPREAD_FLOOR * s_max and
    s_min >= _BLOCK_SINGULAR_FLOOR; (1, A) when there is none.

    The QR of A^k Q keeps each log|r_jj| to about eps * cond(A^k) (Stewart
    1995, ETNA 3), which the spread floor bounds.  Singular, nilpotent,
    overflowing, underflowing and badly conditioned inputs take k = 1.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = a @ a
        a4 = a2 @ a2
        for k, ak in ((8, a4 @ a4), (4, a4), (2, a2)):
            if not np.isfinite(ak).all():
                continue
            s = linalg.svd(ak, compute_uv=False)
            if s[-1] >= max(_BLOCK_SPREAD_FLOOR * s[0], _BLOCK_SINGULAR_FLOOR):
                return k, ak
    return 1, a


@linalg.matrix_memo(maxsize=64)
def _flag_run(a, ns: tuple):
    """One flag run on a, read at each n in ns.  Run on A*, the columns of each
    q approximate right singular directions of A^n and its levels their
    singular values' n-th roots.

    ns is a sorted tuple of step counts.  After n multiply-and-orthonormalize
    steps a^n = Q T with Q of that step.  Returns one (q, levels) per n: levels
    are the per-step growth factors exp(log|T_jj| / window) over the final
    quarter of the first n steps, after the flag has aligned, so they are free
    of the alignment transient.  The run steps by blocks of a^k (k from
    ``_block_power``) into one diagonal buffer and reaches each read-out point
    p (an n or a window start) from the block at k * (p // k) with p % k
    single steps of a, so a read-out at n does not depend on the other entries
    of ns.  The blocks stop only where a Q is read, at each n and each p off
    the blocks, and every n is read out in one array pass.  The estimators
    called on one (a, n) share a run through this memo.  A run past
    _MAX_STEPS is refused before anything is allocated.
    """
    if max(ns) > _MAX_STEPS:
        raise InvalidInput(f"n = {max(ns)} is more than {_MAX_STEPS} flag steps")
    m = a.shape[0]
    k, ak = _block_power(a)
    windows = [max(1, n // 4) for n in ns]
    starts = [n - w for n, w in zip(ns, windows)]
    trunk = np.empty((max(ns) // k, m), dtype=np.complex128)
    q, done, qs = np.eye(m, dtype=np.complex128), 0, {}
    for b in sorted({n // k for n in ns} | {p // k for p in starts if p % k}):
        q = qs[b] = _flag_steps(ak, q, trunk[done:b])
        done = b
    at = {}
    with np.errstate(divide="ignore"):
        trunk_logs = _log_sums(np.zeros(m), trunk)  # row b: the logs after b blocks
        for p in set(ns) | set(starts):
            q, logs = qs.get(p // k), trunk_logs[p // k]
            if p % k:
                steps = np.empty((p % k, m), dtype=np.complex128)
                q, logs = _flag_steps(a, q, steps), _log_sums(logs, steps)[-1]
            at[p] = q, logs
    ends = np.array([at[n][1] for n in ns])
    with np.errstate(invalid="ignore"):
        tail = ends - np.array([at[p][1] for p in starts])
    tail[np.isneginf(ends) | ~np.isfinite(tail)] = -np.inf  # dead, nan and +inf tails
    levels = np.exp(tail / np.array(windows)[:, None])
    levels[~np.isfinite(levels)] = 0.0
    return tuple((at[n][0], row) for n, row in zip(ns, levels))


@linalg.matrix_memo(maxsize=64)
def _power_roots(a, ns: tuple):
    """(V, roots) with |A^n|^(1/n) = V diag(roots) V* for each n in the
    strictly increasing tuple ns; roots are s_j(A^n)^(1/n).

    The one choice of path: while n <= _EXACT_N_MAX or the singular spread of
    the scaled power (all n from one squaring chain) stays above
    _EXACT_SPREAD_FLOOR, the SVD of that single matrix is exact.  Past it the
    roots are the tail-window rates of one flag run on A* to the largest such
    n, which drop the alignment transient of the first few hundred steps.
    ``normalized_power`` and ``yamamoto_limits`` on one (A, n) share a
    read-out through this memo.
    """
    m, out = a.shape[0], {}
    for n, sp in zip(ns, _scaled_powers(a, ns)):
        if sp.is_zero:
            out[n] = np.eye(m, dtype=np.complex128), np.zeros(m)
            continue
        _, s, vh = linalg.svd(sp.unit)
        if n <= _EXACT_N_MAX or s[-1] >= _EXACT_SPREAD_FLOOR * s[0]:
            out[n] = vh.conj().T, np.exp(sp.log_scale / n) * s ** (1.0 / n)
    flag_ns = tuple(n for n in ns if n not in out)
    if flag_ns:
        out.update(zip(flag_ns, _flag_run(a.conj().T, flag_ns)))
    return tuple(out[n] for n in ns)


def _rebuild(v, roots):
    """V diag(roots) V*, made exactly hermitian; on stacks of V and roots, one per pair."""
    out = (v * roots[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return 0.5 * (out + out.conj().swapaxes(-1, -2))


def normalized_power(a, n: int) -> np.ndarray:
    """|A^n|^(1/n) as a PSD matrix."""
    (v, roots), = _power_roots(a, (positive_int(n),))
    return _rebuild(v, roots)


def yamamoto_limits(a, n: int) -> np.ndarray:
    """(s_1(A^n)^(1/n), ..., s_m(A^n)^(1/n)), descending; zero singulars map to 0."""
    (_, roots), = _power_roots(a, (positive_int(n),))
    return np.sort(roots)[::-1]


def orbit_log_norms(a, v, n: int) -> np.ndarray:
    """log ||A^n v_j|| for each column of v, renormalizing every column at every step.

    Logs of products that leave float range stay finite; a column whose orbit
    reaches zero gets -inf.  Each step takes a column's norm and direction
    from the column scaled by a power of two (``linalg.binary_split``).  The
    scaling is exact, so where the plain norm and division neither overflow
    nor underflow it gives their bytes, and elsewhere it keeps the precision
    they lose: squares leave float range, and numpy divides a complex array
    by a real one through the reciprocal, which overflows at a subnormal norm.
    """
    logs = np.zeros(v.shape[1])
    for _ in range(n):
        u, e = linalg.binary_split(a @ v)
        unit = np.linalg.norm(u, axis=0)
        with np.errstate(divide="ignore"):
            logs += np.log(np.ldexp(unit, e))  # a norm of 0 makes the log -inf for good
        v = u / np.where(unit > 0.0, unit, 1.0)
    return logs


def vector_exponent_estimates(a, xs, n: int) -> np.ndarray:
    """Growth exponents lim ||A^n x||^(1/n) for a batch of vectors (columns of xs)."""
    a = linalg.as_matrix(a)
    n = positive_int(n)
    xs = np.asarray(xs, dtype=np.complex128)
    if xs.ndim == 1:
        xs = xs[:, None]
    if xs.ndim != 2 or xs.shape[0] != a.shape[0]:
        raise InvalidInput(f"xs must be a vector or a matrix of {a.shape[0]} rows, got shape {xs.shape}")
    xs = linalg.binary_scaled(xs)
    norms = np.linalg.norm(xs, axis=0)

    if n <= 128:
        # Direct renormalized iteration; trustworthy before roundoff seeds the
        # fastest direction.  Zero columns stay zero and their orbits die.
        units = xs / np.where(norms > 0.0, norms, 1.0)
        return np.exp(orbit_log_norms(a, units, n) / n)

    # Large n: read the exponent off the converged right singular flag.  The
    # direct iterate is useless here; rounding noise in the fastest direction
    # overtakes any sub-dominant vector long before n of this size.  Levels
    # come from the tail window so the alignment transient does not bias them.
    # A vector's exponent is the largest level among the flag directions it
    # has a significant component along (0 if none, as for x = 0).
    (q, level), = _flag_run(a.conj().T, (n,))
    significant = np.abs(q.conj().T @ xs) > _COEFF_TOL * norms
    return np.where(significant, level[:, None], 0.0).max(axis=0)


def convergence_study(a, schedule, limit_matrix) -> ConvergenceReport:
    """Errors ||A^n|^(1/n) - K|| over a strictly increasing schedule of positive integers.

    One ``_power_roots`` call over the whole schedule: each n takes the path
    ``normalized_power`` takes, and the n on the flag path are all read from
    one flag run to the largest of them.  Every |A^n|^(1/n) is rebuilt in one
    stacked product, and each error is one spectral norm.
    """
    schedule = [positive_int(n) for n in schedule]
    if not schedule or any(b <= a_ for a_, b in zip(schedule, schedule[1:])):
        raise InvalidInput("schedule must be nonempty and strictly increasing")
    a = linalg.as_matrix(a)
    k = np.asarray(limit_matrix, dtype=np.complex128)
    if k.shape != a.shape or not np.isfinite(k).all():
        raise InvalidInput(f"limit_matrix must be a finite {a.shape} matrix, got shape {k.shape}")
    v, roots = (np.stack(x) for x in zip(*_power_roots(a, tuple(schedule))))
    return ConvergenceReport(errors=tuple(float(linalg.norm2(x)) for x in _rebuild(v, roots) - k))
