"""Spans around calls into satk's public functions, and the per-layer metrics.

The tracer wraps each function named in ``TIMED``, and ``cli.main``.  It
installs a wrapper wherever a satk module holds that function: in its own
module, where satk's internal calls find it, and in every module that
imported it by name (``cli`` holds its own ``normalized_power``).  ``install`` and ``remove`` swap the
wrappers in and out, so untraced items run satk's functions untouched.

A span is ``[name, start, end, parent, item, size]``: ``parent`` indexes the
span that was open when this one started (-1 for none), ``item`` is the label
of the benchmark item that caused it, and ``size`` is the byte length of a
serialized record (``records.to_json`` only).
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from satk import records

# Spans whose median time per call, in ms, is a metric (``<span>_ms``).
TIMED = (
    "powerit.normalized_power",
    "powerit.vector_exponent_estimates",
    "powerit.yamamoto_limits",
    "powerit.scaled_power",
    "powerit.convergence_study",
    "decomp.dunford",
    "decomp.spectral_idempotent",
    "resolution.modulus_resolution",
    "resolution.limit_operator",
    "resolution.check_resolution",
    "resolution.vector_exponent_exact",
    "linalg.range_projection",
    "semigroup.halfplane_resolution",
    "semigroup.matrix_exp_scaled",
    "semigroup.exp_growth_estimate",
    "shifts.shift_power_crosscheck",
    "shifts.geometric_mean_table",
    "shifts.uniform_limit_detector",
    "instances.generate_instance",
    "mmio.parse_matrix",
    "records.to_json",
    "cli.run_command",
)
TIME_METRICS = {f"{name}_ms": name for name in TIMED}
# Calls per item of these spans.
COUNT_METRICS = {
    "decomp.spectral_idempotent_calls": "decomp.spectral_idempotent",
    "resolution.modulus_resolution_calls": "resolution.modulus_resolution",
    "linalg.range_projection_calls": "linalg.range_projection",
    "semigroup.halfplane_resolution_calls": "semigroup.halfplane_resolution",
}
STEP_DIMS = (2, 5, 8)
STEP_NS = (1024, 4096)


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "ms" for name in TIME_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({f"powerit.step_us.d{d}": "us" for d in STEP_DIMS})
    units.update(
        {
            "powerit.max_error": "abs",
            "records.record_bytes": "bytes",
            "cli.overhead_ms": "ms",
            "trace.overhead_pct": "%",
        }
    )
    return units


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None
        self._open = []
        self._patches = []
        for name in (*TIMED, "cli.main"):
            if name == "records.to_json":  # a method: wrap it on the class
                to_json = records.RunRecord.to_json
                self._patches.append((records.RunRecord, "to_json", to_json, self._wrap(to_json, name, len)))
                continue
            layer, fn = name.split(".")
            self._patch_everywhere(getattr(importlib.import_module(f"satk.{layer}"), fn), name)

    def _patch_everywhere(self, original, name):
        wrapper = self._wrap(original, name)
        for modname, module in list(sys.modules.items()):
            if modname == "satk" or modname.startswith("satk."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def _wrap(self, fn, name, size=None):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if size is not None:
                span[5] = size(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values)


def layer_metrics(spans, items, own: str, order) -> dict:
    """Per-layer metrics from the spans of traced items.

    ``items`` holds ``(kind, traced, seconds, estimator_error)`` per item.  A
    metric is taken over the items of the run's own workload ``own`` when
    they call the function, and otherwise over the first probe kind in
    ``order`` whose items do, so every layer reports on every workload.
    """
    by_kind = defaultdict(lambda: defaultdict(list))  # kind -> span name -> spans
    for span in spans:
        by_kind[span[4][0]][span[0]].append(span)
    traced_items = defaultdict(int)
    for kind, traced, _, _ in items:
        traced_items[kind] += traced

    def source(name):
        for kind in (own, *order):
            if by_kind[kind][name]:
                return kind, by_kind[kind][name]
        raise RuntimeError(f"no traced call of {name}")

    out = {}
    for metric, name in TIME_METRICS.items():
        out[metric] = _median_ms([s[2] - s[1] for s in source(name)[1]])
    for metric, name in COUNT_METRICS.items():
        kind, found = source(name)
        out[metric] = len(found) / traced_items[kind]
    kind, found = source("records.to_json")
    out["records.record_bytes"] = sum(s[5] for s in found) / traced_items[kind]

    run_time = defaultdict(float)  # cli.main span -> time in its run_command
    for span in spans:
        if span[0] == "cli.run_command" and span[3] >= 0:
            run_time[id(spans[span[3]])] += span[2] - span[1]
    out["cli.overhead_ms"] = _median_ms([s[2] - s[1] - run_time[id(s)] for s in source("cli.main")[1]])

    for d in STEP_DIMS:
        lo, hi = (
            statistics.median(s[2] - s[1] for s in by_kind[f"step.d{d}.n{n}"]["powerit.normalized_power"])
            for n in STEP_NS
        )
        out[f"powerit.step_us.d{d}"] = 1e6 * (hi - lo) / (STEP_NS[1] - STEP_NS[0])

    for kind in (own, *order):
        errors = [e for k, traced, _, e in items if k == kind and traced and e is not None]
        if errors:
            out["powerit.max_error"] = max(errors)
            break

    traced = [s for kind, t, s, _ in items if kind == own and t]
    plain = [s for kind, t, s, _ in items if kind == own and not t]
    out["trace.overhead_pct"] = 100.0 * (np.mean(traced) / np.mean(plain) - 1.0)
    return out
