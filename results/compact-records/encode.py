"""Time `RunRecord.to_json` on dim-8 records on one or more checkouts.

    python3 results/compact-records/encode.py CHECKOUT [CHECKOUT ...]

Each round runs every checkout in a fresh process, the order turning by one
checkout per round.  A process builds the `limit` and `decompose` records of
acceptance instance dim 8, seed 7, and times 200 calls of `to_json` on each,
best of 7.  Printed: the microseconds per call of each round, their median
and the record's size in bytes.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROUNDS = 5
PROBE = """
import json, time
from satk.cli import run_command
from satk.records import RunConfig
out = {}
for command in ("limit", "decompose"):
    rec = run_command(RunConfig(command=command, seed=7, params={"instance": {"dim": 8}}))
    best = float("inf")
    for _ in range(7):
        t = time.perf_counter()
        for _ in range(200):
            rec.to_json()
        best = min(best, time.perf_counter() - t)
    out[command] = [best / 200 * 1e6, len(rec.to_json().encode())]
print(json.dumps(out))
"""


def probe(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    text = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(text)


def main(checkouts):
    checkouts = [Path(c).resolve() for c in checkouts]
    times = {c: [] for c in checkouts}
    for r in range(ROUNDS):
        for c in checkouts[r % len(checkouts):] + checkouts[: r % len(checkouts)]:
            times[c].append(probe(c))
    for c, rounds in times.items():
        print(c)
        for command in rounds[0]:
            per_round = [t[command][0] for t in rounds]
            line = " ".join(f"{t:.1f}" for t in per_round)
            size = rounds[0][command][1]
            print(f"  {command}: {line}  median {statistics.median(per_round):.1f} us, {size} bytes")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1:])
