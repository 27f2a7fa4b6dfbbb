"""Which record keys differ between two runs of ``results/records.py``, per command.

    python3 results/record_diff.py PARENT_OUT.json PARENT_KEEP CHANGE_OUT.json CHANGE_KEEP

Both runs must use the same WORKDIR, so that the rows of the two OUT files
name the same runs in the same order.  A record is flattened to key paths:
``checks.<name>.<field>`` for each check, ``results.<key>`` for a result
(a list of numbers is one key), and the top-level keys.  For each set
(``fresh``, ``in_process``) and command, the script prints the runs whose
exit status changed and, for each key path that differs in some run, in how
many runs it differs and the largest absolute difference of its numbers, or
the side it is on when it is on one side only (``-`` when it is not
numeric), and then the runs whose record moved.
"""

import json
import math
import sys
from collections import defaultdict
from pathlib import Path

MISSING = object()


def flatten(record: dict) -> dict:
    flat = {}
    for key, value in record.items():
        if key == "checks":
            for check in value:
                for field, v in check.items():
                    if field != "name":
                        flat[f"checks.{check['name']}.{field}"] = v
        elif key in ("results", "config") and isinstance(value, dict):
            for sub, v in value.items():
                flat[f"{key}.{sub}"] = v
        else:
            flat[key] = value
    return flat


def numbers(value):
    """The numbers of nested lists and dicts in order, or None if they hold anything else."""
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, (list, dict)):
        out = []
        for v in (value.values() if isinstance(value, dict) else value):
            sub = numbers(v)
            if sub is None:
                return None
            out.extend(sub)
        return out
    return None


def difference(a, b) -> float | None:
    """Largest absolute difference of two equal-shaped numeric values, else None."""
    na, nb = numbers(a), numbers(b)
    if na is None or nb is None or len(na) != len(nb):
        return None
    return max((abs(x - y) if math.isfinite(x - y) else math.inf for x, y in zip(na, nb)), default=0.0)


def main(parent_out, parent_keep, change_out, change_keep):
    parent, change = json.loads(Path(parent_out).read_text()), json.loads(Path(change_out).read_text())
    for name in ("fresh", "in_process"):
        diffs = defaultdict(lambda: defaultdict(list))  # command -> key -> differences
        runs, exits, moved = defaultdict(int), defaultdict(list), defaultdict(list)
        for i, ((run, code_p, _), (run_c, code_c, _)) in enumerate(zip(parent[name], change[name])):
            assert run == run_c, (run, run_c)
            command = run.split()[0]
            runs[command] += 1
            if code_p != code_c:
                exits[command].append(f"{run}: {code_p} -> {code_c}")
            a = flatten(json.loads((Path(parent_keep) / name / f"{i}.json").read_text()))
            b = flatten(json.loads((Path(change_keep) / name / f"{i}.json").read_text()))
            if a != b:
                moved[command].append(run.replace("--input WORKDIR/", ""))
            for key in sorted(set(a) | set(b)):
                va, vb = a.get(key, MISSING), b.get(key, MISSING)
                if va is MISSING or vb is MISSING:
                    diffs[command][key].append("only in parent" if vb is MISSING else "only in change")
                elif va != vb:
                    diffs[command][key].append(difference(va, vb))
        print(f"## {name}\n")
        for command in sorted(runs):
            print(f"- `{command}`, {runs[command]} runs, {len(exits[command])} exit statuses changed")
            for line in exits[command]:
                print(f"  - {line}")
            for key, ds in sorted(diffs[command].items()):
                if isinstance(ds[0], str):
                    print(f"  - `{key}`: {len(ds)} runs, {ds[0]}")
                else:
                    size = "-" if None in ds else f"{max(ds):.3g}"
                    print(f"  - `{key}`: {len(ds)} runs, largest difference {size}")
            if moved[command]:
                print(f"  - moved: {', '.join(moved[command])}")
        print()


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    main(*sys.argv[1:])
