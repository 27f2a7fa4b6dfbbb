"""Where the `resolution` saving comes from, timed in one process.

    python3 results/fixed-cost/attribution.py

Runs `satk decompose` and `satk limit` through `cli.main` on the 171 files
of one `resolution` round (seed 301) and keeps the arguments of every
`linalg.svd` call and the dict of every record written.  Then it times, on
those same arguments, each replaced call against the one it replaced:
`np.linalg.svd` against `linalg.svd`, `json.dumps(..., indent=1)` against
`records._dumps`, and `inspect.signature` against the cached `cli._signature`.
Each side is the best of 7 repeats, and the two sides alternate 5 times.
"""

import inspect
import json
import statistics
import sys
import tempfile
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from satk import cli, linalg, records  # noqa: E402


def recorded_calls(work: Path):
    files = workloads.Resolution(301, work).files
    out = str(work / "rec.json")
    svd_args, dicts = [], []
    svd, to_json = linalg.svd, records.RunRecord.to_json

    def svd_spy(a, compute_uv=True):
        svd_args.append((np.array(a), compute_uv))
        return svd(a, compute_uv)

    def to_json_spy(self):
        dicts.append(self.to_dict())
        return to_json(self)

    linalg.svd, records.RunRecord.to_json = svd_spy, to_json_spy
    try:
        for f in files:
            for cmd in ("decompose", "limit"):
                cli.main([cmd, "--input", str(f.path), "--out", out])
    finally:
        linalg.svd, records.RunRecord.to_json = svd, to_json
    return len(files), svd_args, dicts


def paired(old, new, rounds=5):
    def best(fn):
        return min(timeit.repeat(fn, number=3, repeat=7)) / 3

    times = [(best(old), best(new)) for _ in range(rounds)]
    return statistics.median(t[0] for t in times), statistics.median(t[1] for t in times)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        items, svd_args, dicts = recorded_calls(Path(tmp))
    print(f"{items} items: {len(svd_args) / items:.2f} SVD calls and {len(dicts) / items:.2f} records per item")
    cmds = [cli._DISPATCH[c] for c in ("decompose", "limit")] * items
    cases = {
        "svd": (
            lambda: [np.linalg.svd(a, compute_uv=uv) for a, uv in svd_args],
            lambda: [linalg.svd(a, uv) for a, uv in svd_args],
        ),
        "record writer": (
            lambda: [json.dumps(d, sort_keys=True, separators=(",", ": "), indent=1) for d in dicts],
            lambda: [records._dumps(d) for d in dicts],
        ),
        "signature": (
            lambda: [inspect.signature(c) for c in cmds],
            lambda: [cli._signature(c) for c in cmds],
        ),
    }
    total = 0.0
    for name, (old, new) in cases.items():
        o, n = paired(old, new)
        total += (o - n) / items
        print(f"{name}: {o / items * 1e3:.3f} -> {n / items * 1e3:.3f} ms per item, saves {(o - n) / items * 1e3:.3f} ms")
    print(f"sum: {total * 1e3:.3f} ms per item")


if __name__ == "__main__":
    main()
