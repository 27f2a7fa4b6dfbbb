"""Wall time and peak RSS of each satk CLI command in fresh processes, parent and change alternating.

    python3 results/startup/startup.py PARENT_DIR CHANGE_DIR OUT.json [ROUNDS]

PARENT_DIR and CHANGE_DIR are checkouts of the two commits.  Each round
runs every command once per checkout, each run a new process
(``python -m satk.cli COMMAND ...`` with the checkout's ``src`` as
``PYTHONPATH`` and OpenBLAS at one thread), timed from launch to exit, its
peak resident set read from the kernel's ``ru_maxrss`` of that one child
(``os.wait4``); the checkout that goes first alternates from round to round.  ``import`` is a
process that only runs ``import satk, satk.cli``; one untimed ``import``
per checkout comes first, so no timed run compiles bytecode.  OUT gets the
machine (core count, BLAS, Python, numpy and scipy versions), every time,
peak RSS and exit status and, per command and side, the median and
quartiles of both; the medians are also printed as a Markdown table.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

ROUNDS = 10
# (name, arguments after `python`): fixed seeds and configs
COMMANDS = (
    ("import", ["-c", "import satk, satk.cli"]),
    ("decompose", ["-m", "satk.cli", "decompose", "--seed", "1"]),
    ("limit", ["-m", "satk.cli", "limit", "--seed", "1"]),
    ("iterate", ["-m", "satk.cli", "iterate", "--seed", "1"]),
    ("yamamoto", ["-m", "satk.cli", "yamamoto", "--seed", "1"]),
    ("vector-exponent", ["-m", "satk.cli", "vector-exponent", "--seed", "1"]),
    ("shift", ["-m", "satk.cli", "shift"]),
    ("semigroup", ["-m", "satk.cli", "semigroup", "--seed", "1"]),
    ("sweep", ["-m", "satk.cli", "sweep", "--seed", "42", "--config", '{"count": 10}']),
)


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


def run(checkout: Path, argv: list, out: Path) -> tuple:
    """(seconds from launch to exit, peak RSS in MB, exit status) of one fresh process."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    if argv[0] == "-m":
        argv = [*argv, "--out", str(out)]
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.DEVNULL)
    _, wait_status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)  # reaped here, not by Popen
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode  # ru_maxrss is in KiB on Linux


def summary(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def main(parent: str, change: str, out: str, rounds: int = ROUNDS):
    sides = {"parent": Path(parent).resolve(), "change": Path(change).resolve()}
    times = {side: {name: [] for name, _ in COMMANDS} for side in sides}
    rss = {side: {name: [] for name, _ in COMMANDS} for side in sides}
    statuses = {side: {} for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for checkout in sides.values():  # untimed: writes each checkout's bytecode caches
            run(checkout, COMMANDS[0][1], Path(tmp) / "rec.json")
        for r in range(rounds):
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for name, argv in COMMANDS:
                for side in order:
                    seconds, peak, status = run(sides[side], argv, Path(tmp) / "rec.json")
                    times[side][name].append(seconds)
                    rss[side][name].append(peak)
                    statuses[side].setdefault(name, set()).add(status)
    report = {
        "env": environment(),
        "rounds": rounds,
        "commands": {name: " ".join(argv) for name, argv in COMMANDS},
        "exit_status": {side: {k: sorted(v) for k, v in s.items()} for side, s in statuses.items()},
        "seconds": times,
        "peak_rss_mb": rss,
        "summary": {side: {name: summary(v) for name, v in t.items()} for side, t in times.items()},
        "rss_summary": {side: {name: summary(v) for name, v in r.items()} for side, r in rss.items()},
    }
    Path(out).write_text(json.dumps(report, indent=1) + "\n")
    print("| command | parent (s) | change (s) | change / parent | parent (MB) | change (MB) | change / parent |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for name, _ in COMMANDS:
        cells = []
        for key, digits in (("summary", 3), ("rss_summary", 1)):
            p, c = (report[key][side][name] for side in ("parent", "change"))
            cells += [
                f"{p['median']:.{digits}f} [{p['q1']:.{digits}f}, {p['q3']:.{digits}f}]",
                f"{c['median']:.{digits}f} [{c['q1']:.{digits}f}, {c['q3']:.{digits}f}]",
                f"{c['median'] / p['median']:.3f}",
            ]
        print(f"| `{name}` | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    if len(sys.argv) not in (4, 5):
        sys.exit(__doc__)
    main(*sys.argv[1:4], *map(int, sys.argv[4:]))
