"""Time `shifts.shift_power_crosscheck` on the six corpus shift configs, on one or more checkouts.

    python3 results/shift-orbit/crosscheck.py CHECKOUT [CHECKOUT ...]

Each round runs every checkout in a fresh process, the order turning by one
checkout per round.  A process builds each weight sequence as `satk shift`
does (the configs of `results/records.py`'s SHIFTS) and times one call of
the crosscheck, best of 7.  Printed: the milliseconds per call of each round
and their median, per config.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROUNDS = 5
PROBE = """
import json, time
from satk import shifts
from satk.shifts import WeightSequence
configs = (
    ("harmonic", WeightSequence("harmonic"), 256, 32),
    ("geometric 0.5", WeightSequence("geometric", ratio=0.5), 256, 32),
    ("constant 1", WeightSequence("constant", level=1.0), 256, 32),
    ("blocks 2", WeightSequence("blocks", level=2.0), 256, 32),
    ("geometric 0.3", WeightSequence("geometric", ratio=0.3), 400, 150),
    ("blocks 2", WeightSequence("blocks", level=2.0), 400, 150),
)
out = {}
for name, w, m, n in configs:
    best = float("inf")
    for _ in range(7):
        t = time.perf_counter()
        shifts.shift_power_crosscheck(w, m, n)
        best = min(best, time.perf_counter() - t)
    out[f"{name}, m = {m}, n = {n}"] = best * 1e3
print(json.dumps(out))
"""


def probe(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    text = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(text)


def main(checkouts):
    checkouts = [Path(c).resolve() for c in checkouts]
    times = {c: [] for c in checkouts}
    for r in range(ROUNDS):
        for c in checkouts[r % len(checkouts):] + checkouts[: r % len(checkouts)]:
            times[c].append(probe(c))
    for c, rounds in times.items():
        print(c)
        for config in rounds[0]:
            per_round = [t[config] for t in rounds]
            line = " ".join(f"{t:.3f}" for t in per_round)
            print(f"  {config}: {line}  median {statistics.median(per_round):.3f} ms")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1:])
