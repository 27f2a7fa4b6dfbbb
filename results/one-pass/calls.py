"""Schur splits and time of ``dunford`` + ``modulus_resolution``, parent against change.

    python3 results/one-pass/calls.py PARENT_DIR CHANGE_DIR OUT.json [ROUNDS]

Each side runs in fresh processes with ``PYTHONPATH=DIR/src`` and
``OPENBLAS_NUM_THREADS=1``, ROUNDS times (default 5), the two sides
alternating.  A process takes the 400 generated instances of seeds 0-399
(dims 2-8, ``InstanceSpec(dim=2 + seed % 7)``) and, for each, empties
satk's memos, then times ``modulus_resolution(dunford(A))`` with
``perf_counter`` and counts the ``ztrsen`` and ``ztrsyl`` calls it makes.  A
refused instance counts its calls and time up to the refusal.  OUT gets the
counts (the same in every round), the total time of each round, the median
over rounds, and the machine.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import importlib, json, pkgutil, time
import satk
from satk import linalg
from satk.decomp import dunford
from satk.instances import InstanceSpec, generate_instance
from satk.resolution import modulus_resolution

calls = {"ztrsen": 0, "ztrsyl": 0}
for name in calls:
    routine = getattr(linalg.lapack, name)
    def counted(*args, routine=routine, name=name):
        calls[name] += 1
        return routine(*args)
    setattr(linalg.lapack, name, counted)
modules = [importlib.import_module(f"satk.{info.name}") for info in pkgutil.iter_modules(satk.__path__)]
memos = {id(m): m for mod in modules for m in vars(mod).values() if hasattr(m, "cache_clear")}.values()
mats = [generate_instance(s, InstanceSpec(dim=2 + s % 7)).matrix for s in range(400)]
total, refused = 0.0, 0
for a in mats:
    for m in memos:
        m.cache_clear()
    start = time.perf_counter()
    try:
        modulus_resolution(dunford(a))
    except satk.IllConditioned:
        refused += 1
    total += time.perf_counter() - start
print(json.dumps({**calls, "refused": refused, "seconds": total}))
"""


def run(checkout: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(parent, change, out, rounds="5"):
    sides = {"parent": Path(parent).resolve(), "change": Path(change).resolve()}
    runs = {name: [] for name in sides}
    for r in range(int(rounds)):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for name in order:
            runs[name].append(run(sides[name]))
    import numpy, scipy

    report = {
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "processor": platform.processor() or platform.machine(),
        },
        "instances": 400,
    }
    for name, rs in runs.items():
        report[name] = {
            "ztrsen": rs[0]["ztrsen"],
            "ztrsyl": rs[0]["ztrsyl"],
            "refused": rs[0]["refused"],
            "round_ms": [round(1e3 * r["seconds"], 1) for r in rs],
            "median_us_per_instance": round(1e6 * statistics.median(r["seconds"] for r in rs) / 400, 1),
        }
        assert all((r["ztrsen"], r["ztrsyl"]) == (rs[0]["ztrsen"], rs[0]["ztrsyl"]) for r in rs)
    Path(out).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    if len(sys.argv) not in (4, 5):
        sys.exit(__doc__)
    main(*sys.argv[1:])
