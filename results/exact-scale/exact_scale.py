"""Cost and homogeneity of the power read-outs on a parent and a change checkout.

    python3 results/exact-scale/exact_scale.py OUT.json PARENT_DIR CHANGE_DIR [ROUNDS]

Every measurement runs in a fresh process per checkout (``PYTHONPATH`` set to
its ``src``), with satk's memos cold; each round runs both checkouts, the one
that goes first alternating from round to round.  A process takes generated
instances (``InstanceSpec(dim=dim)``, the family of the benchmark's
``family`` workload) and measures:

- ``zgesdd`` calls per read-out: ``powerit._power_roots`` on a fresh A at
  ``(4096,)`` and at the ``schedule`` read-out 16, 32, ..., 4096, counted by
  wrapping ``linalg.lapack.zgesdd``, split into the squaring chain
  (``powerit._scaled_powers``) and the rest (probe SVDs and the flag run's
  block choice); seeds 50000-50019 at each dim 2-8;
- ``_scaled_powers`` time per read-out on the same 140 matrices, best of 7
  calls each (the chain is not memoized), mean per dim in microseconds;
- homogeneity, bit for bit: for seeds 51000-51009 at each dim 2-8 and
  c = 2^600, 2^-600 and 2^3, whether ``normalized_power(cA, n)`` and
  ``yamamoto_limits(cA, n)`` at n = 16, 64 and 4096, and
  ``vector_exponent_estimates(cA, I, 4096)``, have the bytes of c times the
  same read-out of A;
- scale error: on c [[1, 1], [0, 0.5]] at n = 4096, c = 1e200, 1e-200,
  1e-160 and 1e-40, the relative distance of ``normalized_power`` and
  ``yamamoto_limits`` from c times their values at c = 1.

The timing is the median over rounds of each round's mean; the counts and
bytes are the same in every round and are taken from the first.  Written to
OUT.json with the machine (core count, BLAS, Python, numpy and scipy
versions); printed as Markdown tables.
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

ROUNDS = 3
PROBE = """
import json, time
import numpy as np
from satk import linalg, powerit
from satk.instances import InstanceSpec, generate_instance

SCHEDULE = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
calls = [0]
zgesdd = linalg.lapack.zgesdd

def counting(*args):
    calls[0] += 1
    return zgesdd(*args)

linalg.lapack.zgesdd = counting

def clear():
    powerit._power_roots.cache_clear()
    powerit._flag_run.cache_clear()

def count(f):
    clear()
    calls[0] = 0
    f()
    return calls[0]

out = {"chain_us": {}, "zgesdd": {}, "homogeneity": {}, "scale_error": {}}
for name, ns in (("n4096", (4096,)), ("schedule", SCHEDULE)):
    out["chain_us"][name], out["zgesdd"][name] = {}, {}
    for dim in range(2, 9):
        mats = [generate_instance(seed, InstanceSpec(dim=dim)).matrix for seed in range(50000, 50020)]
        chain = [count(lambda: powerit._scaled_powers(a, ns)) for a in mats]
        total = [count(lambda: powerit._power_roots(a, ns)) for a in mats]
        times = []
        for a in mats:
            best = float("inf")
            for _ in range(7):
                t = time.perf_counter()
                powerit._scaled_powers(a, ns)
                best = min(best, time.perf_counter() - t)
            times.append(best)
        out["zgesdd"][name][dim] = {"chain": sum(chain) / len(mats), "total": sum(total) / len(mats)}
        out["chain_us"][name][dim] = 1e6 * sum(times) / len(times)

cases = {"normalized_power": 0, "yamamoto_limits": 0, "vector_exponent_estimates": 0}
unequal = dict.fromkeys(cases, 0)
for dim in range(2, 9):
    for seed in range(51000, 51010):
        a = generate_instance(seed, InstanceSpec(dim=dim)).matrix
        for c in (2.0**600, 2.0**-600, 2.0**3):
            for n in (16, 64, 4096):
                for f in (powerit.normalized_power, powerit.yamamoto_limits):
                    cases[f.__name__] += 1
                    unequal[f.__name__] += f(c * a, n).tobytes() != (c * f(a, n)).tobytes()
            f = powerit.vector_exponent_estimates
            cases[f.__name__] += 1
            unequal[f.__name__] += f(c * a, np.eye(dim), 4096).tobytes() != (c * f(a, np.eye(dim), 4096)).tobytes()
out["homogeneity"] = {"cases": cases, "unequal": unequal}

b = np.array([[1, 1], [0, 0.5]], dtype=complex)
k, lim = powerit.normalized_power(b, 4096), powerit.yamamoto_limits(b, 4096)
for c in (1e200, 1e-200, 1e-160, 1e-40):
    out["scale_error"][repr(c)] = {
        "normalized_power": float(linalg.norm2(powerit.normalized_power(c * b, 4096) - c * k) / linalg.norm2(c * k)),
        "yamamoto_limits": float(np.max(np.abs(powerit.yamamoto_limits(c * b, 4096) - c * lim) / (c * lim))),
    }
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
    first = {side: probes[0] for side, probes in runs.items()}
    chain_us = {
        side: {name: {dim: statistics.median(p["chain_us"][name][dim] for p in probes) for dim in per_dim}
               for name, per_dim in probes[0]["chain_us"].items()}
        for side, probes in runs.items()
    }
    report = {
        "env": environment(),
        "rounds": rounds,
        "chain_us": chain_us,
        "chain_us_per_round": {side: [p["chain_us"] for p in probes] for side, probes in runs.items()},
        **{key: {side: first[side][key] for side in sides} for key in ("zgesdd", "homogeneity", "scale_error")},
    }
    Path(out).write_text(json.dumps(report, indent=1) + "\n")

    print("| read-out | dim | parent zgesdd (chain) | change zgesdd (chain) | parent chain µs | change chain µs |")
    print("| --- | --- | --- | --- | --- | --- |")
    for name in ("n4096", "schedule"):
        for dim in report["zgesdd"]["parent"][name]:
            cells = [f"{report['zgesdd'][s][name][dim]['total']:.2f} ({report['zgesdd'][s][name][dim]['chain']:.0f})"
                     for s in sides]
            cells += [f"{chain_us[s][name][dim]:.1f}" for s in sides]
            print(f"| {name} | {dim} | " + " | ".join(cells) + " |")
    print()
    print("| read-out | cases | not equal at the parent | not equal at the change |")
    print("| --- | --- | --- | --- |")
    for f, n in report["homogeneity"]["parent"]["cases"].items():
        cells = [str(report["homogeneity"][s]["unequal"][f]) for s in sides]
        print(f"| `{f}` | {n} | " + " | ".join(cells) + " |")
    print()
    print("| c | parent K | change K | parent limits | change limits |")
    print("| --- | --- | --- | --- | --- |")
    for c in report["scale_error"]["parent"]:
        cells = [f"{report['scale_error'][s][c][key]:.2g}" for key in ("normalized_power", "yamamoto_limits")
                 for s in sides]
        print(f"| {c} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    if len(sys.argv) not in (4, 5):
        sys.exit(__doc__)
    main(*sys.argv[1:4], *map(int, sys.argv[4:]))
