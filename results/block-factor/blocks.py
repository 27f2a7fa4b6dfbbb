"""Block factor and flag-run time per dimension at n = 4096, on a parent and a change checkout.

    python3 results/block-factor/blocks.py OUT.json PARENT_DIR CHANGE_DIR [ROUNDS]

Each round runs both checkouts in fresh processes, the one that goes first
alternating from round to round.  A process takes generated instances
seeds 40000-40029 at each dim 2-8 (``InstanceSpec(dim=dim)``, the family of
the benchmark's ``family`` workload) and, for each matrix A, records the
block factor k of ``powerit._block_power(A*)`` and times
``powerit._flag_run`` on A* at n = 4096, past its memo, best of 3.  Each
dim's time is the mean over its 30 instances.  A run at n = 4096 takes
4096 / k kernel steps at every k up to 32.

Written to OUT.json with the machine (core count, BLAS, Python, numpy and
scipy versions): each round's milliseconds per dim and side, the block
factors per dim and side, and the mean kernel steps per run.  Printed: a
Markdown table of the factors and of the median milliseconds per dim.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

ROUNDS = 5
PROBE = """
import json, time
from satk import powerit
from satk.instances import InstanceSpec, generate_instance

out = {"ms": {}, "k": {}, "steps": {}}
for dim in range(2, 9):
    total, ks, steps = 0.0, [], 0
    for seed in range(40000, 40030):
        b = generate_instance(seed, InstanceSpec(dim=dim)).matrix.conj().T
        k = powerit._block_power(b)[0]
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            powerit._flag_run.__wrapped__(b, (4096,))
            best = min(best, time.perf_counter() - t)
        total, steps = total + best, steps + 4096 // k
        ks.append(k)
    out["ms"][dim] = total / 30 * 1e3
    out["k"][dim] = ks
    out["steps"][dim] = steps / 30
print(json.dumps(out))
"""


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def probe(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    text = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(text)


def main(out: str, parent: str, change: str, rounds: int = ROUNDS):
    sides = {"parent": Path(parent).resolve(), "change": Path(change).resolve()}
    runs = {side: [] for side in sides}
    for r in range(rounds):
        for side in list(sides) if r % 2 == 0 else list(sides)[::-1]:
            runs[side].append(probe(sides[side]))
    dims = list(runs["parent"][0]["ms"])
    report = {
        "env": environment(),
        "n": 4096,
        "rounds": rounds,
        "seeds": [40000, 40029],
        "ms": {side: [p["ms"] for p in probes] for side, probes in runs.items()},
        "block_factors": {side: probes[0]["k"] for side, probes in runs.items()},
        "steps_per_run": {side: probes[0]["steps"] for side, probes in runs.items()},
    }
    Path(out).write_text(json.dumps(report, indent=1) + "\n")
    print("| dim | parent k (count) | change k (count) | parent steps | change steps "
          "| parent ms | change ms | change / parent |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for dim in dims:
        cells = []
        for side in sides:
            counts = sorted(Counter(report["block_factors"][side][dim]).items(), reverse=True)
            cells.append(", ".join(f"{k} ({c})" for k, c in counts))
        cells += [f"{report['steps_per_run'][side][dim]:.0f}" for side in sides]
        ms = [statistics.median(r[dim] for r in report["ms"][side]) for side in sides]
        cells += [f"{ms[0]:.3f}", f"{ms[1]:.3f}", f"{ms[1] / ms[0]:.3f}"]
        print(f"| {dim} | " + " | ".join(cells) + " |")
    steps = {side: statistics.mean(report["steps_per_run"][side].values()) for side in sides}
    print(f"mean kernel steps per run: parent {steps['parent']:.0f}, change {steps['change']:.0f}")


if __name__ == "__main__":
    if len(sys.argv) not in (4, 5):
        sys.exit(__doc__)
    main(*sys.argv[1:4], *map(int, sys.argv[4:]))
