"""Markdown table of the parent/change pairs in RESULT_DIR/parent and RESULT_DIR/change.

    python3 results/table.py RESULT_DIR

One row per workload and end-to-end metric: each side's median with its
quartiles, the change's median over the parent's, and the pairs (same
workload and seed) in which the change reads better.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BETTER_HIGHER = {"items_per_s"}
METRICS = ("items_per_s", "item_p50_ms", "item_p90_ms", "setup_s", "peak_rss_mb")


def load(side_dir):
    runs = defaultdict(dict)  # workload -> seed -> report
    for path in sorted(side_dir.glob("BENCH_*_trace0.json")):
        report = json.loads(path.read_text())
        runs[report["env"]["workload"]][report["env"]["seed"]] = report["result"]
    return runs


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def main(result_dir):
    parent, change = load(result_dir / "parent"), load(result_dir / "change")
    print("| workload | seeds | metric | parent | change | change / parent | pairs won by the change |")
    print("|" + " --- |" * 7)
    failures = []
    for workload in sorted(parent):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            continue
        label = f"`{workload}` | {seeds[0]}–{seeds[-1]}"
        for metric in METRICS:
            p = [parent[workload][s]["metrics"][metric]["value"] for s in seeds]
            c = [change[workload][s]["metrics"][metric]["value"] for s in seeds]
            sign = 1 if metric in BETTER_HIGHER else -1
            won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
            ratio = statistics.median(c) / statistics.median(p)
            print(
                f"| {label} | `{metric}` | {quartiles(p)} | {quartiles(c)} "
                f"| {ratio:.3f} | {won} of {len(seeds)} |"
            )
            label = " | "
        for side, runs in (("parent", parent), ("change", change)):
            counts = ", ".join(f"{r['failed']}/{r['attempted']}" for r in map(runs[workload].get, seeds))
            failures.append(f"- `{workload}` {side}, failed/attempted per seed: {counts}")
    print()
    print("\n".join(failures))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(Path(sys.argv[1]))
