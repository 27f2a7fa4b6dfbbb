"""Weighted unilateral shifts: geometric-mean tables, convergence heuristics, truncations.

Weights are indexed from k = 1 with the convention w_0 = 0; a truncation acts
on span(delta_1 .. delta_m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .powerit import orbit_log_norms

# The detector's tail block is the last 1/_TAIL_FRACTION of the window lengths.
_TAIL_FRACTION = 4
# An explicit list counts as w_n -> 0 when the second half of its first
# _BACKWARD_HORIZON weights is at most _BACKWARD_TOL.
_BACKWARD_HORIZON = 4096
_BACKWARD_TOL = 1e-6


@dataclass(frozen=True)
class WeightSequence:
    """Bounded weight sequence; ``kind`` is one of explicit/harmonic/geometric/constant/blocks."""

    kind: str
    values: tuple = ()  # explicit only
    ratio: float = 0.0  # geometric q
    level: float = 0.0  # constant c, or blocks high value c (low value 1/c)

    def __post_init__(self):
        if self.kind == "explicit":
            if not self.values:
                raise InvalidInput("explicit weights need at least one value")
        elif self.kind == "geometric":
            if not 0.0 < self.ratio < 1.0:
                raise InvalidInput("geometric ratio must lie in (0, 1)")
        elif self.kind == "constant":
            if self.level <= 0.0:
                raise InvalidInput("constant weight must be positive")
        elif self.kind == "blocks":
            if self.level <= 1.0:
                raise InvalidInput("blocks level must exceed 1")
        elif self.kind != "harmonic":
            raise InvalidInput(f"unknown weight kind {self.kind!r}")

    def weights(self, count: int) -> np.ndarray:
        """|w_1|, ..., |w_count| as magnitudes."""
        k = np.arange(1, count + 1)
        if self.kind == "explicit":
            if count > len(self.values):
                raise InvalidInput(
                    f"explicit sequence has {len(self.values)} weights, need {count}"
                )
            return np.abs(np.array(self.values[:count], dtype=float))
        if self.kind == "harmonic":
            return 1.0 / (k + 1)
        if self.kind == "geometric":
            return self.ratio**k.astype(float)
        if self.kind == "constant":
            return np.full(count, self.level)
        # blocks: alternating values c, 1/c on blocks of length 1, 2, 4, ...
        out = np.empty(count)
        pos, length, high = 0, 1, True
        while pos < count:
            stop = min(count, pos + length)
            out[pos:stop] = self.level if high else 1.0 / self.level
            pos, length, high = stop, length * 2, not high
        return out


def explicit(values) -> WeightSequence:
    return WeightSequence("explicit", values=tuple(values))


def harmonic() -> WeightSequence:
    return WeightSequence("harmonic")


def geometric(q: float) -> WeightSequence:
    return WeightSequence("geometric", ratio=float(q))


def constant(c: float) -> WeightSequence:
    return WeightSequence("constant", level=float(c))


def blocks(c: float) -> WeightSequence:
    return WeightSequence("blocks", level=float(c))


@dataclass(frozen=True)
class MeanTable:
    """Sliding geometric means alpha[k-1, n-1] = (prod_{i<n} |w_{k+i}|)^(1/n)."""

    start_max: int
    length_max: int
    values: np.ndarray


@dataclass(frozen=True)
class DetectorResult:
    converged: bool
    alpha: float | None = None
    witness: tuple | None = None  # ((k, n), (k', n')) extreme tail cells


@dataclass(frozen=True)
class CrosscheckReport:
    truncation_dim: int
    power: int
    max_deviation: float
    interior_cells: int


def geometric_mean_table(w: WeightSequence, start_max: int, length_max: int) -> MeanTable:
    """All alpha_{k,n} for k <= start_max, n <= length_max, via log prefix sums."""
    if start_max < 1 or length_max < 1:
        raise InvalidInput("table dimensions must be at least 1")
    mags = w.weights(start_max + length_max - 1)
    # a zero weight adds log 1 = 0 here; the zero count below zeroes its windows
    prefix = np.concatenate([[0.0], np.cumsum(np.log(np.where(mags > 0, mags, 1.0)))])
    zeros = np.concatenate([[0], np.cumsum(mags == 0.0)])
    ks = np.arange(1, start_max + 1)[:, None]
    ns = np.arange(1, length_max + 1)[None, :]
    window_sum = prefix[ks + ns - 1] - prefix[ks - 1]
    window_zero = zeros[ks + ns - 1] - zeros[ks - 1]
    vals = np.exp(window_sum / ns)
    vals[window_zero > 0] = 0.0
    return MeanTable(start_max=start_max, length_max=length_max, values=vals)


def uniform_limit_detector(table: MeanTable, tol: float = 1e-2) -> DetectorResult:
    """Finite-horizon heuristic for uniform convergence of the mean table.

    A finite table cannot certify a limit: this checks that the tail block
    (the last quarter of the window lengths, all starts) is flat within
    ``tol`` around its mean.  Non-flat tables yield the pair of extreme cells
    as a witness.
    """
    tail_window = max(1, table.length_max // _TAIL_FRACTION)
    tail = table.values[:, table.length_max - tail_window :]
    alpha_hat = float(tail.mean())
    dev = np.abs(tail - alpha_hat)
    if dev.max() <= tol:
        return DetectorResult(converged=True, alpha=alpha_hat)
    lo = np.unravel_index(np.argmin(tail), tail.shape)
    hi = np.unravel_index(np.argmax(tail), tail.shape)
    offset = table.length_max - tail_window
    witness = (
        (int(hi[0]) + 1, int(hi[1]) + 1 + offset),
        (int(lo[0]) + 1, int(lo[1]) + 1 + offset),
    )
    return DetectorResult(converged=False, witness=witness)


def truncate_forward(w: WeightSequence, m: int) -> np.ndarray:
    """m x m truncation of the forward shift: w_k at cell (k+1, k), 1-indexed."""
    if m < 2:
        raise InvalidInput("truncation dimension must be at least 2")
    mags = w.weights(m - 1)
    out = np.zeros((m, m), dtype=np.complex128)
    out[np.arange(1, m), np.arange(m - 1)] = mags
    return out


def truncate_backward(w: WeightSequence, m: int) -> np.ndarray:
    """m x m truncation of the backward shift: w_k at cell (k-1, k), 1-indexed."""
    if m < 2:
        raise InvalidInput("truncation dimension must be at least 2")
    mags = w.weights(m)
    out = np.zeros((m, m), dtype=np.complex128)
    out[np.arange(m - 1), np.arange(1, m)] = mags[1:]
    return out


def backward_classifier(w: WeightSequence) -> bool:
    """Whether the backward shift's normalized power sequence converges (iff w_n -> 0).

    Exact for the closed-form kinds; a tail-window heuristic for explicit lists.
    """
    if w.kind in ("harmonic", "geometric"):
        return True
    if w.kind in ("constant", "blocks"):
        return False
    mags = w.weights(min(_BACKWARD_HORIZON, len(w.values)))
    tail = mags[len(mags) // 2 :]
    return bool(np.max(tail) <= _BACKWARD_TOL)


def shift_power_crosscheck(w: WeightSequence, m: int, n: int) -> CrosscheckReport:
    """Verify the interior diagonal of |F^n|^(1/n) of a truncation against the mean table.

    |F^n|^2 is exactly diagonal with entries prod |w|^2 over the sliding
    window, so the comparison isolates index bookkeeping and roundoff.
    """
    if n < 1:
        raise InvalidInput("n must be at least 1")
    if n > m // 2:
        raise InvalidInput(f"power {n} exceeds the truncation interior (m/2 = {m // 2})")
    # Column norms of F^n from a renormalized orbit of the identity: window
    # products like q^1000 leave float range, their logs do not.  The orbit is
    # called directly: the public estimator switches to flag rates past n = 128.
    logs = orbit_log_norms(truncate_forward(w, m), np.eye(m, dtype=np.complex128), n)
    roots = np.exp(logs / n)
    interior = m - n
    table = geometric_mean_table(w, interior, n)
    deviation = np.abs(roots[:interior] - table.values[:, n - 1])
    return CrosscheckReport(
        truncation_dim=m,
        power=n,
        max_deviation=float(deviation.max()),
        interior_cells=interior,
    )
