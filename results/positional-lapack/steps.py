"""Time one flag step (`powerit._flag_steps`) per dimension on one or more checkouts.

    python3 results/positional-lapack/steps.py CHECKOUT [CHECKOUT ...]

Each round runs every checkout in a fresh process, the order turning by one
checkout per round.  A process takes the matrix of acceptance instance
`dim`, seed 7, and times 1000 steps of it, best of 9, at dims 2, 5 and 8.
Printed: the microseconds per step of each round and their median.
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
import numpy as np
from satk import powerit
from satk.instances import InstanceSpec, generate_instance
out = {}
for dim in (2, 5, 8):
    a = generate_instance(7, InstanceSpec(dim=dim)).matrix
    diagonals = np.empty((1000, dim), dtype=np.complex128)
    best = float("inf")
    for _ in range(9):
        t = time.perf_counter()
        powerit._flag_steps(a, np.eye(dim, dtype=np.complex128), diagonals)
        best = min(best, time.perf_counter() - t)
    out[dim] = best / len(diagonals) * 1e6
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
        for dim in rounds[0]:
            per_round = [t[dim] for t in rounds]
            line = " ".join(f"{t:.2f}" for t in per_round)
            print(f"  dim {dim}: {line}  median {statistics.median(per_round):.2f} us/step")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1:])
