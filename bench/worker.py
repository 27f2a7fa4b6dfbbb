"""One benchmark process: set up a workload, then time it for the given seconds.

Started by ``run.py`` in a fresh interpreter (so satk's flag cache is cold),
with the BLAS thread count fixed in its environment.  It prints one JSON line:
the monotonic clock reading at which the first timed item was ready, the
calibrated clock's scale at that moment, the environment, and (unless
``--setup-only``) the measured results.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from satk import instances, powerit  # noqa: E402

PROBE_ITEMS = 3  # items of each other workload in a traced run
STEP_REPEATS = 3  # instances per (dim, n) in the flag-step probe
# The calibrated clock: each item's time is scaled by CAL_NOMINAL_S over the
# time of the calibration loop, run every CAL_EVERY_S between items.  The
# host's speed drifts by a third within minutes; the loop drifts with it.
CAL_STEPS = 200
CAL_NOMINAL_S = 0.007
CAL_EVERY_S = 0.1
_CAL_MATRIX = np.random.default_rng(0).standard_normal((8, 8)) + 0j
END_TO_END_UNITS = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_p90_ms": "ms", "peak_rss_mb": "MB"}


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    out = {}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "fresh_process": True,
        "flag_cache_cold": not getattr(powerit, "_flag_cache", None),
    }


def calibrate() -> float:
    """Seconds for CAL_STEPS multiply-and-QR steps on a fixed 8x8 matrix (numpy only)."""
    q = np.eye(8, dtype=np.complex128)
    t0 = time.perf_counter()
    for _ in range(CAL_STEPS):
        q, _ = np.linalg.qr(_CAL_MATRIX @ q)
    return time.perf_counter() - t0


def run_item(item, label, tracer=None):
    """Run one item callable, traced under ``label`` when a tracer is given."""
    if tracer is None:
        return item()
    tracer.item = label
    tracer.install()
    try:
        return item()
    finally:
        tracer.remove()


def timed_phase(wl, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed, tracing every other item when
    a tracer is given.  Returns [(outcome, traced, wall seconds, calibration
    seconds)] per item, the calibration being the mean of the loops run just
    before and just after the item."""
    items = []
    cals = [calibrate()]
    t0 = cal_at = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        for item in wl.round():
            if time.perf_counter() - cal_at > CAL_EVERY_S:
                cals.append(calibrate())
                cal_at = time.perf_counter()
            traced = tracer is not None and len(items) % 2 == 1
            start = time.perf_counter()
            outcome = run_item(item, (wl.name, len(items)), tracer if traced else None)
            items.append((outcome, traced, time.perf_counter() - start, len(cals) - 1))
    cals.append(calibrate())
    return [(o, t, wall, 0.5 * (cals[i] + cals[i + 1])) for o, t, wall, i in items]


def summary(results, probes=()) -> dict:
    """Counts over the measured items; a probe item that fails unexpectedly
    also makes the run incorrect."""
    failed = [r[0] for r in results if not r[0].ok]
    unexpected = [o for o in (*failed, *probes) if not (o.ok or o.expected_failure)]
    return {
        "attempted": len(results),
        "failed": len(failed),
        "correct": not unexpected,
        "failures": [{"expected": o.expected_failure, "errors": o.errors} for o in (*unexpected, *failed)[:5]],
    }


def end_to_end(results):
    """The end-to-end metrics on the calibrated clock, and the same on the wall clock."""

    def metrics(scale):
        times = [o.seconds * scale(cal) for o, _, _, cal in results if o.ok]
        return {
            "items_per_s": len(times) / sum(wall * scale(cal) for _, _, wall, cal in results),
            "item_p50_ms": 1e3 * statistics.median(times),
            "item_p90_ms": 1e3 * float(np.percentile(times, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    wall = metrics(lambda cal: 1.0)
    wall["calibration_ms"] = 1e3 * statistics.median(r[3] for r in results)
    return metrics(lambda cal: CAL_NOMINAL_S / cal), wall


def step_probe(seed, tracer):
    """normalized_power at n = 1024 and 4096 on instances of dims 2, 5, 8 whose
    moduli are all distinct, so every call takes the flag path."""
    rng = workloads.seeded_rng(seed, 5)
    items = []
    for d in tracing.STEP_DIMS:
        spec = instances.InstanceSpec(dim=d, repeat_prob=0.0, shared_modulus_prob=0.0)
        for _ in range(STEP_REPEATS):
            a = instances.generate_instance(int(rng.integers(2**32)), spec).matrix
            for n in tracing.STEP_NS:
                items.append((f"step.d{d}.n{n}", lambda a=a, n=n: powerit.normalized_power(a, n)))
    for i, (kind, item) in enumerate(items):
        run_item(item, (kind, i), tracer)


def traced_run(wl, args, workdir):
    """The workload with every other item traced, then probes of the other
    workloads and of the flag step, so every layer has spans."""
    tracer = tracing.Tracer()
    results = timed_phase(wl, args.seconds, tracer)
    items = [(wl.name, t, o.seconds, o.estimator_error) for o, t, _, _ in results]
    order = [name for name in workloads.WORKLOADS if name != wl.name]
    probes = []
    for name in order:
        probe_dir = workdir / f"probe-{name}"
        probe_dir.mkdir()
        other = workloads.WORKLOADS[name](args.seed, probe_dir)
        batch = []
        while len(batch) < PROBE_ITEMS:
            batch += other.round()
        for i, item in enumerate(batch[:PROBE_ITEMS]):
            probes.append(run_item(item, (name, i), tracer))
            items.append((name, True, probes[-1].seconds, probes[-1].estimator_error))
    step_probe(args.seed, tracer)
    metrics = tracing.layer_metrics(tracer.spans, items, wl.name, order)
    return summary(results, probes), metrics, tracer.spans


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="write the traced run's spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    env = environment(args.seed)
    calibrate()  # the first call also pays numpy's one-time set-up
    cal_start = calibrate()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    warm = wl.warmup()()
    if not warm.ok:
        sys.exit(f"warm-up item failed: {warm.errors}")
    cal = 0.5 * (cal_start + calibrate())
    out = {"ready": time.monotonic(), "clock_scale": CAL_NOMINAL_S / cal, "env": env}
    if not args.setup_only:
        if args.trace:
            counts, metrics, spans = traced_run(wl, args, args.workdir)
            if args.spans is not None:
                args.spans.write_text(json.dumps(spans))
            units = tracing.metric_units()
        else:
            results = timed_phase(wl, args.seconds)
            counts = summary(results)
            metrics, out["wall_clock"] = end_to_end(results)
            units = END_TO_END_UNITS
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        out.update(counts, metrics=metrics)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
