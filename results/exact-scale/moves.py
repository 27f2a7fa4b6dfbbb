"""Each record that moved between two runs of ``results/records.py``, with its move relative to rho(A).

    python3 results/exact-scale/moves.py PARENT_OUT.json PARENT_KEEP CHANGE_OUT.json CHANGE_KEEP

Both runs must use the same WORKDIR (see ``results/record_diff.py``).  For
each run whose record bytes differ, the script prints its exit status on
both sides and the largest absolute difference over the numbers of its
``results`` and its check values, and that difference over rho(A).  rho(A)
is read off the record: an estimator command's last check has tolerance
tol * rho(A), with tol from the run's ``--config`` or the command's default;
``sweep`` runs instances of rho(A) = 1.  For ``iterate``, whose errors near
n = 64 are SVD noise of the exact path (ROADMAP item 1, Defect A), the move
over the points n > 64 is given apart.
"""

import json
import math
import sys
from pathlib import Path

DEFAULT_TOL = {"iterate": 1e-3, "yamamoto": 1e-3, "vector-exponent": 1e-3, "semigroup": 1e-2}


def numbers(x):
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return []
    if isinstance(x, (int, float)):
        return [float(x)]
    if isinstance(x, dict):
        return [v for k in sorted(x) for v in numbers(x[k])]
    return [v for y in x for v in numbers(y)]


def largest_move(a, b):
    xs, ys = numbers(a), numbers(b)
    if len(xs) != len(ys):
        return math.inf
    return max((abs(x - y) for x, y in zip(xs, ys)), default=0.0)


def main(parent_out, parent_keep, change_out, change_keep):
    parent, change = json.loads(Path(parent_out).read_text()), json.loads(Path(change_out).read_text())
    print("| set | run | exit (parent, change) | rho(A) | largest move | over rho(A) | n > 64 over rho(A) |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for kind in ("fresh", "in_process"):
        for i, (p, c) in enumerate(zip(parent[kind], change[kind], strict=True)):
            if p == c:
                continue
            a = json.loads((Path(parent_keep) / kind / f"{i}.json").read_text())
            b = json.loads((Path(change_keep) / kind / f"{i}.json").read_text())
            command = b["config"]["command"]
            if command == "sweep":
                rho = 1.0
            else:
                rho = b["checks"][-1]["tolerance"] / b["config"]["params"].get("tol", DEFAULT_TOL[command])
            move = max(largest_move(a["results"], b["results"]),
                       largest_move([x["value"] for x in a["checks"]], [x["value"] for x in b["checks"]]))
            late = ""
            if command == "iterate":
                keep = [j for j, n in enumerate(b["results"]["schedule"]) if n > 64]
                late_move = largest_move([a["results"]["errors"][j] for j in keep],
                                         [b["results"]["errors"][j] for j in keep])
                late = f"{late_move / rho:.2g}"
            name = p[0].replace("WORKDIR/", "")
            print(f"| {kind} | `{name}` | {p[1]}, {c[1]} | {rho:.3g} | {move:.3g} | {move / rho:.2g} | {late} |")


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    main(*sys.argv[1:])
