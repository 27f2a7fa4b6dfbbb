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

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import linalg
from .errors import InvalidInput

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


@dataclass(frozen=True)
class ScaledPower:
    """A^n = exp(log_scale) * unit with ||unit||_2 = 1 (or the zero matrix)."""

    unit: np.ndarray
    log_scale: float
    is_zero: bool = False

    def to_matrix(self) -> np.ndarray:
        if self.is_zero:
            return np.zeros_like(self.unit)
        if self.log_scale > 700.0:
            raise OverflowError("scaled power exceeds float range")
        return np.exp(self.log_scale) * self.unit


@dataclass(frozen=True)
class ConvergenceReport:
    schedule: tuple
    errors: tuple
    estimated_rate: float


def _positive_int(n) -> int:
    if n < 1 or int(n) != n:
        raise InvalidInput(f"n must be a positive integer, got {n}")
    return int(n)


def scaled_power(a, n: int) -> ScaledPower:
    """A^n by binary exponentiation, renormalized to unit spectral norm per multiply."""
    a = linalg.as_matrix(a)
    n = _positive_int(n)
    m = a.shape[0]

    def normalized(x, log):
        s = linalg.norm2(x)
        if s == 0.0:
            return None
        return x / s, log + np.log(s)

    base = normalized(a, 0.0)
    acc = (np.eye(m, dtype=np.complex128), 0.0)
    while n:
        if base is None:
            acc = None
            break
        if n & 1:
            acc = normalized(acc[0] @ base[0], acc[1] + base[1])
            if acc is None:
                break
        n >>= 1
        if n:
            base = normalized(base[0] @ base[0], 2.0 * base[1])
    if acc is None:
        return ScaledPower(unit=np.zeros_like(a), log_scale=0.0, is_zero=True)
    return ScaledPower(unit=acc[0], log_scale=float(acc[1]))


def brute_force_power(a, n: int) -> np.ndarray:
    """Plain repeated multiplication, the independent oracle for small n."""
    a = linalg.as_matrix(a)
    n = _positive_int(n)
    if n > 64:
        raise InvalidInput("brute force is limited to n <= 64")
    out = a.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n - 1):
            out = out @ a
            if not np.all(np.isfinite(out.view(np.float64))):
                raise OverflowError(f"entries overflowed at power {n}")
    return out


# --- QR-accumulation flag runs ------------------------------------------------

def _flag_step(a, q, logs):
    """a @ q = q' r by LAPACK Householder QR; returns q' and logs + log|r_jj|.

    Callers run their loop under ``np.errstate(divide="ignore")``: a singular
    step gives log 0 = -inf.
    """
    qr, tau, _, info = lapack.zgeqrf(a @ q, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"zgeqrf failed with info={info}")
    logs = logs + np.log(np.abs(qr.diagonal()))
    q, _, info = lapack.zungqr(qr, tau, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"zungqr failed with info={info}")
    return q, logs


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
            s = np.linalg.svd(ak, compute_uv=False)
            if s[-1] >= max(_BLOCK_SPREAD_FLOOR * s[0], _BLOCK_SINGULAR_FLOOR):
                return k, ak
    return 1, a


@functools.lru_cache(maxsize=64)
def _flag_run(key: bytes, m: int, ns: tuple):
    """One flag run on the m x m matrix a with a.tobytes() == key, read at each n in ns.

    ns is a sorted tuple of step counts.  After n multiply-and-orthonormalize
    steps a^n = Q T with Q of that step.  Returns one (q, levels) per n: levels
    are the per-step growth factors exp(log|T_jj| / window) over the final
    quarter of the first n steps, after the flag has aligned, so they are free
    of the alignment transient.  The run steps by blocks of a^k (k from
    ``_block_power``) and reaches each read-out point p from the block at
    k * (p // k) with p % k single steps of a, so a read-out at n does not
    depend on the other entries of ns.  The estimators called on one (a, n)
    share a run through this memo, so the arrays are read-only.
    """
    a = np.frombuffer(key, dtype=np.complex128).reshape(m, m)
    k, ak = _block_power(a)
    points = sorted(set(ns) | {n - max(1, n // 4) for n in ns})
    at = {}
    q, logs = np.eye(m, dtype=np.complex128), np.zeros(m)
    done = 0
    with np.errstate(divide="ignore"):
        for p in points:
            blocks = (p - done) // k
            for _ in range(blocks):
                q, logs = _flag_step(ak, q, logs)
            done += blocks * k
            at[p] = q, logs
            for _ in range(p - done):
                at[p] = _flag_step(a, *at[p])
    out = []
    for n in ns:
        q, logs = at[n]
        window = max(1, n // 4)
        with np.errstate(invalid="ignore"):
            tail = logs - at[n - window][1]
            tail[np.isneginf(logs)] = -np.inf
            levels = np.exp(np.nan_to_num(tail, nan=-np.inf, posinf=-np.inf) / window)
        levels = np.nan_to_num(levels, nan=0.0, posinf=0.0)
        q.flags.writeable = False
        levels.flags.writeable = False
        out.append((q, levels))
    return tuple(out)


def _right_flag(a, ns):
    """Flag run on A* read at each n in the sorted tuple ns: columns of each q
    approximate right singular directions of A^n, levels their singular
    values' n-th roots."""
    return _flag_run(a.conj().T.tobytes(), a.shape[0], ns)


def _use_exact_path(sp: ScaledPower, n: int) -> bool:
    if n <= _EXACT_N_MAX:
        return True
    s = np.linalg.svd(sp.unit, compute_uv=False)
    return s[-1] >= _EXACT_SPREAD_FLOOR * s[0]


def _exact_power(a, n: int):
    """|A^n|^(1/n) from the single scaled matrix, or None where the spread of
    A^n calls for a flag run."""
    sp = scaled_power(a, n)
    if sp.is_zero:
        return np.zeros_like(a)
    if not _use_exact_path(sp, n):
        return None
    u, s, vh = np.linalg.svd(sp.unit)
    roots = np.exp(sp.log_scale / n) * s ** (1.0 / n)
    out = vh.conj().T @ (roots[:, None] * vh)
    return 0.5 * (out + out.conj().T)


def _flag_power(q, roots):
    """Asymptotic regime: |A^n|^(1/n) rebuilt from the converged flag with
    tail-window rates, which drop the alignment transient of the first few
    hundred steps."""
    out = (q * roots) @ q.conj().T
    return 0.5 * (out + out.conj().T)


def normalized_power(a, n: int) -> np.ndarray:
    """|A^n|^(1/n) as a PSD matrix."""
    a = linalg.as_matrix(a)
    n = _positive_int(n)
    out = _exact_power(a, n)
    if out is None:
        (q, roots), = _right_flag(a, (n,))
        out = _flag_power(q, roots)
    return out


def yamamoto_limits(a, n: int) -> np.ndarray:
    """(s_1(A^n)^(1/n), ..., s_m(A^n)^(1/n)), descending; zero singulars map to 0."""
    a = linalg.as_matrix(a)
    n = _positive_int(n)
    sp = scaled_power(a, n)
    if sp.is_zero:
        return np.zeros(a.shape[0])
    if _use_exact_path(sp, n):
        s = np.linalg.svd(sp.unit, compute_uv=False)
        vals = np.exp(sp.log_scale / n) * s ** (1.0 / n)
        vals[s == 0.0] = 0.0
    else:
        (_, levels), = _right_flag(a, (n,))
        vals = np.sort(levels)[::-1]
    return vals


def orbit_log_norms(a, v, n: int) -> np.ndarray:
    """log ||A^n v_j|| for each column of v, renormalizing every column at every step.

    Logs of products that leave float range stay finite; a column whose orbit
    reaches zero gets -inf.
    """
    logs = np.zeros(v.shape[1])
    live = np.ones(v.shape[1], dtype=bool)
    for _ in range(n):
        v = a @ v
        step = np.linalg.norm(v, axis=0)
        live &= step > 0.0
        safe = np.where(live, step, 1.0)
        logs = np.where(live, logs + np.log(safe), -np.inf)
        v = np.where(live, v / safe, 0.0)
    return logs


def vector_exponent_estimates(a, xs, n: int) -> np.ndarray:
    """Growth exponents lim ||A^n x||^(1/n) for a batch of vectors (columns of xs)."""
    a = linalg.as_matrix(a)
    n = _positive_int(n)
    xs = np.asarray(xs, dtype=np.complex128)
    if xs.ndim == 1:
        xs = xs[:, None]
    if xs.shape[0] != a.shape[0]:
        raise InvalidInput("vector dimension mismatch")
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
    (q, level), = _right_flag(a, (n,))
    significant = np.abs(q.conj().T @ xs) > _COEFF_TOL * norms
    return np.where(significant, level[:, None], 0.0).max(axis=0)


def convergence_study(a, schedule, limit_matrix) -> ConvergenceReport:
    """Errors ||A^n|^(1/n) - K|| over a schedule, with a log-error tail slope.

    Each n takes the path ``normalized_power`` takes; the n on the flag path
    are all read from one flag run to the largest of them.
    """
    a = linalg.as_matrix(a)
    schedule = [int(n) for n in schedule]
    if not schedule or schedule[0] < 1 or any(b <= a_ for a_, b in zip(schedule, schedule[1:])):
        raise InvalidInput("schedule must be nonempty, positive and strictly increasing")
    k = np.asarray(limit_matrix, dtype=np.complex128)
    powers = {n: _exact_power(a, n) for n in schedule}
    flag_ns = tuple(n for n in schedule if powers[n] is None)
    if flag_ns:
        for n, (q, roots) in zip(flag_ns, _right_flag(a, flag_ns)):
            powers[n] = _flag_power(q, roots)
    errors = [float(linalg.norm2(powers[n] - k)) for n in schedule]
    tail = max(2, len(schedule) // 2)
    ns = np.array(schedule[-tail:], dtype=float)
    logs = np.log(np.maximum(errors[-tail:], 1e-300))
    rate = float(np.polyfit(ns, logs, 1)[0]) if len(ns) >= 2 else 0.0
    return ConvergenceReport(
        schedule=tuple(schedule),
        errors=tuple(errors),
        estimated_rate=rate,
    )
