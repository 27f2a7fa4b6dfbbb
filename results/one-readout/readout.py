"""Time a flag run's read-out and a schedule's convergence study on one or more checkouts.

    python3 results/one-readout/readout.py OUT.json CHECKOUT [CHECKOUT ...]

Each round runs every checkout in a fresh process, the order turning by one
checkout per round.  A process takes the matrix A of acceptance instance
`dim`, seed 7, at dims 2, 5 and 8, and times, best of 9:

- ``flag_run``: ``powerit._flag_run`` on A* at the step counts of the
  benchmark's ``schedule`` workload, 16 ... 4096, past its memo;
- ``convergence_study``: ``powerit.convergence_study`` of A over that
  schedule against its closed-form K, with the read-out memos emptied first.

Printed, and written to OUT.json with the machine: the milliseconds of each
round and their median, per checkout, timing and dim.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROUNDS = 5
PROBE = """
import json, time
from satk import powerit
from satk.decomp import dunford
from satk.instances import InstanceSpec, generate_instance
from satk.resolution import limit_operator, modulus_resolution

SCHEDULE = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


def best(f):
    out = float("inf")
    for _ in range(9):
        t = time.perf_counter()
        f()
        out = min(out, time.perf_counter() - t)
    return out * 1e3


def study(a, k):
    powerit._power_roots.cache_clear()
    powerit._flag_run.cache_clear()
    powerit.convergence_study(a, SCHEDULE, k)


out = {"flag_run": {}, "convergence_study": {}}
for dim in (2, 5, 8):
    a = generate_instance(7, InstanceSpec(dim=dim)).matrix
    k = limit_operator(modulus_resolution(dunford(a))).matrix
    out["flag_run"][dim] = best(lambda: powerit._flag_run.__wrapped__(a.conj().T, SCHEDULE))
    out["convergence_study"][dim] = best(lambda: study(a, k))
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


def main(out, checkouts):
    checkouts = [Path(c).resolve() for c in checkouts]
    rounds = {c: [] for c in checkouts}
    for r in range(ROUNDS):
        for c in checkouts[r % len(checkouts):] + checkouts[: r % len(checkouts)]:
            rounds[c].append(probe(c))
    report = {"machine": environment(), "rounds": ROUNDS, "checkouts": {}}
    for c, runs in rounds.items():
        print(c)
        report["checkouts"][c.name] = timings = {}
        for timing, dims in runs[0].items():
            timings[timing] = {}
            for dim in dims:
                per_round = [run[timing][dim] for run in runs]
                median = statistics.median(per_round)
                timings[timing][dim] = {"ms": per_round, "median_ms": median}
                line = " ".join(f"{t:.3f}" for t in per_round)
                print(f"  {timing} dim {dim}: {line}  median {median:.3f} ms")
    Path(out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2:])
