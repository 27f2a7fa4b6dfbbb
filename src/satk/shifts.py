"""Weighted unilateral shifts: geometric-mean tables, convergence heuristics, the power crosscheck.

Weights are indexed from k = 1 with the convention w_0 = 0; a truncation acts
on span(delta_1 .. delta_m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, positive_int, real_number

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
    level: float | None = None  # constant c (default 1), or blocks high value c (default 2; low value 1/c)

    def __post_init__(self):
        level = (2.0 if self.kind == "blocks" else 1.0) if self.level is None else self.level
        object.__setattr__(self, "level", real_number(level, "level"))
        if self.kind == "explicit":
            if not self.values:
                raise InvalidInput("explicit weights need at least one value")
            for i, v in enumerate(self.values):
                real_number(v, f"values[{i}]")
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


@dataclass(frozen=True)
class DetectorResult:
    converged: bool
    alpha: float | None = None
    witness: tuple | None = None  # ((k, n), (k', n')) extreme tail cells


def geometric_mean_table(w: WeightSequence, start_max: int, length_max: int) -> np.ndarray:
    """The (start_max, length_max) array of sliding geometric means
    alpha[k-1, n-1] = (prod_{i<n} |w_{k+i}|)^(1/n), via log prefix sums."""
    start_max, length_max = positive_int(start_max, "start_max"), positive_int(length_max, "length_max")
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
    return vals


def uniform_limit_detector(table: np.ndarray, tol: float = 1e-2) -> DetectorResult:
    """Finite-horizon heuristic for uniform convergence of the mean table.

    A finite table cannot certify a limit: this checks that the tail block
    (the last quarter of the window lengths, all starts) is flat within
    ``tol`` around its mean.  Non-flat tables yield the pair of extreme cells
    as a witness.
    """
    tail_window = max(1, table.shape[1] // _TAIL_FRACTION)
    offset = table.shape[1] - tail_window
    tail = table[:, offset:]
    alpha_hat = float(tail.mean())
    dev = np.abs(tail - alpha_hat)
    if dev.max() <= tol:
        return DetectorResult(converged=True, alpha=alpha_hat)
    lo = np.unravel_index(np.argmin(tail), tail.shape)
    hi = np.unravel_index(np.argmax(tail), tail.shape)
    witness = (
        (int(hi[0]) + 1, int(hi[1]) + 1 + offset),
        (int(lo[0]) + 1, int(lo[1]) + 1 + offset),
    )
    return DetectorResult(converged=False, witness=witness)


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


def shift_power_crosscheck(w: WeightSequence, m: int, n: int) -> float:
    """Largest deviation of the interior diagonal of |F^n|^(1/n) of a
    truncation from the mean table, over its m - n interior cells.

    |F^n|^2 is exactly diagonal with entries prod |w|^2 over the sliding
    window, so the comparison isolates index bookkeeping and roundoff.
    """
    m, n = positive_int(m, "m"), positive_int(n, "n")
    if n > m // 2:
        raise InvalidInput(f"power {n} exceeds the truncation interior (m/2 = {m // 2})")
    # F^s delta_j = (w_j ... w_(j+s-1)) delta_(j+s): each of the m - n interior
    # columns keeps one entry, inside the truncation for all n steps.  Its log
    # modulus is carried, so window products like q^1000 keep their logs; a
    # zero weight gives -inf, and a root of 0.
    interior = m - n
    with np.errstate(divide="ignore"):
        log_w = np.log(w.weights(m - 1))
    logs = np.zeros(interior)
    for s in range(n):
        logs += log_w[s : s + interior]
    table = geometric_mean_table(w, interior, n)
    return float(np.abs(np.exp(logs / n) - table[:, n - 1]).max())
