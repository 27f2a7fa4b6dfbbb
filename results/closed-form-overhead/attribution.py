"""Where the `resolution` saving comes from: each cut timed in fresh processes.

    python3 results/closed-form-overhead/attribution.py PARENT_DIR CHANGE_DIR [ROUNDS]

PARENT_DIR and CHANGE_DIR are checkouts of the two commits.  Each round
starts one new process per side, the side that runs first alternating, and
each process imports satk from its checkout's ``src``.  A process writes the
171 files of one ``resolution`` round (seed 301, with that checkout's
``bench``) and times, per file, the calls that a ``decompose`` and a ``limit``
item make, each with its inputs prepared and the best of 7 repeats of 5
calls:

- ``parse_matrix``: the file read twice, as the two commands read it;
- ``eigen_clusters``, with the Schur form in its memo;
- ``spectral_idempotent`` of every cluster, with the Schur form in its memo;
- ``dunford`` filling its memo, with the Schur form in its memo: the two
  above, ``DunfordDecomposition`` and the memo's freeze of the result;
- ``modulus_resolution`` filling the ``_resolution`` memo;
- ``check_resolution``;
- ``decompose``'s checks: ``_cmd_decompose`` on the parsed matrix with
  ``dunford`` and the Schur form in their memos (``D`` and ``||A||``);
- ``to_json`` of the two records.

The three Jordan files are refused in ``dunford`` on both sides; of them
only the parse and the records are timed.  The table gives each side's
median over the rounds of the sum over the files, divided by the 171 files,
in microseconds per item.  The rows overlap
(``dunford`` holds the two rows above it), so they do not add up to an item.
Host, Python and library versions come with the table.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

CUTS = (
    "parse_matrix x2",
    "eigen_clusters",
    "spectral_idempotent (all clusters)",
    "dunford memo fill",
    "modulus_resolution memo fill",
    "check_resolution",
    "decompose checks",
    "to_json x2",
)

CHILD = r'''
import json, sys, tempfile, timeit
from pathlib import Path
root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "bench")]
import workloads
from satk import cli, decomp, resolution
from satk.records import RunConfig, RunRecord

def best(fn):
    return min(timeit.repeat(fn, number=5, repeat=7)) / 5

with tempfile.TemporaryDirectory() as tmp:
    files = workloads.Resolution(301, Path(tmp)).files
    out = str(Path(tmp) / "rec.json")
    kept = []
    to_json = RunRecord.to_json
    def spy(self):
        kept.append(self)
        return to_json(self)
    RunRecord.to_json = spy
    for f in files:  # the records of one round, and every memo warm once
        cli.main(["decompose", "--input", str(f.path), "--out", out])
        cli.main(["limit", "--input", str(f.path), "--out", out])
    RunRecord.to_json = to_json
    totals = dict.fromkeys(CUTS, 0.0)
    for n, f in enumerate(files):
        path = str(f.path)
        totals["parse_matrix x2"] += 2 * best(lambda: cli.parse_matrix(path))
        pair = kept[2 * n: 2 * n + 2]
        totals["to_json x2"] += best(lambda: [r.to_json() for r in pair])
        if f.jordan:  # refused in dunford, on both sides
            continue
        a = cli.parse_matrix(path)
        decomp.schur_form(a)
        totals["eigen_clusters"] += best(lambda: decomp.eigen_clusters(a))
        clusters = decomp.eigen_clusters(a)
        totals["spectral_idempotent (all clusters)"] += best(
            lambda: [decomp.spectral_idempotent(a, c) for c in clusters]
        )
        totals["dunford memo fill"] += best(lambda: (decomp.dunford.cache_clear(), decomp.dunford(a)))
        dec = decomp.dunford(a)
        totals["modulus_resolution memo fill"] += best(
            lambda: (resolution._resolution.cache_clear(), resolution.modulus_resolution(dec))
        )
        res = resolution.modulus_resolution(dec)
        totals["check_resolution"] += best(lambda: resolution.check_resolution(a, res))
        acquire = cli._acquire
        cli._acquire = lambda config, instance: a
        try:
            config = RunConfig("decompose", input_path=path)
            totals["decompose checks"] += best(lambda: cli._cmd_decompose(RunRecord(config), config))
        finally:
            cli._acquire = acquire
print(json.dumps({k: v / len(files) * 1e6 for k, v in totals.items()}))
'''


def run(side: Path) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    code = f"CUTS = {CUTS!r}\n" + CHILD
    proc = subprocess.run([sys.executable, "-c", code, str(side)], env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{side}: {proc.stderr}")
    return json.loads(proc.stdout)


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    parent, change = Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()
    rounds = int(sys.argv[3]) if len(sys.argv) > 3 else 5
    runs = {"parent": [], "change": []}
    for r in range(rounds):
        order = [("parent", parent), ("change", change)]
        for name, side in order if r % 2 == 0 else order[::-1]:
            runs[name].append(run(side))
        print(f"round {r + 1} of {rounds} done", file=sys.stderr)
    print(
        f"{os.cpu_count()} cores, Python {platform.python_version()}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}, OpenBLAS at 1 thread; median of {rounds} fresh processes per side\n"
    )
    print("| cut | parent (us per item) | change (us per item) | saved (us per item) |")
    print("| --- | --- | --- | --- |")
    for cut in CUTS:
        p = statistics.median(run_[cut] for run_ in runs["parent"])
        c = statistics.median(run_[cut] for run_ in runs["change"])
        print(f"| {cut} | {p:.1f} | {c:.1f} | {p - c:.1f} |")


if __name__ == "__main__":
    main()
