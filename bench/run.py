"""Benchmark entry point: one workload, one seed, in fresh processes.

    python3 bench/run.py --workload family --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it starts the workload's
process ``SETUP_REPEATS`` times: every start is timed from process launch to
the first timed item being ready (``setup_s`` is their median), and the last
one goes on to measure for ``--seconds``.  With ``--trace 1`` one process runs
the traced measurement and reports the per-layer metrics instead.

End-to-end times are on the calibrated clock of ``worker.py``: scaled by how
long a fixed numpy loop takes at that moment, so that the host's drifting
speed cancels.  The wall-clock values are kept in the report file.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it holds the environment.  Both, with the wall-clock values
and the failures seen, are also written to
``.bench_out/BENCH_<workload>_seed<seed>_trace<t>.json``; a traced run writes
its spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # every process started here ends within this
BLAS_THREADS = "1"  # steadier than the default on small matrices; recorded per run


def _child(args, workdir: Path, deadline: float, setup_only: bool, spans: Path | None):
    """Run one fresh worker process; returns its result, the seconds from launch
    to ready, and the calibrated clock's scale measured then."""
    cmd = [
        sys.executable,
        str(ROOT / "bench" / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--workdir={workdir}",
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd.append(f"--spans={spans}")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS)
    workdir.mkdir()
    start = time.monotonic()
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, timeout=deadline - start
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - start, result["clock_scale"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="family, schedule, resolution or analogues")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "satk" / "__init__.py").is_file():
        print(f"bench: no satk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    spans = out_dir / f"SPANS_{name}.json" if args.trace else None
    scratch = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        setups, setups_cal = [], []
        for i in range(1 if args.trace else SETUP_REPEATS):
            last = i == (0 if args.trace else SETUP_REPEATS - 1)
            result, setup, scale = _child(args, scratch / f"p{i}", deadline, not last, spans)
            setups.append(setup)
            setups_cal.append(setup * scale)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups_cal), "unit": "s"}
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    env = dict(result["env"], workload=args.workload, seconds=args.seconds, trace=args.trace)
    wall_clock = dict(result.get("wall_clock") or {}, setups_s=setups)
    report = {"env": env, "result": line, "wall_clock": wall_clock, "failures": result["failures"]}
    (out_dir / f"BENCH_{name}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
