"""SHA-256 of every run record a checkout writes on a fixed corpus, with its exit status.

    python3 results/records.py CHECKOUT WORKDIR OUT.json [KEEP]

Two record sets, both written with CHECKOUT's ``src`` and ``bench``:

- ``fresh``: 191 records, one new process each (``python -m satk.cli``):
  ``decompose``, ``limit``, ``vector-exponent``, ``semigroup``, ``yamamoto``
  (default ``n`` and 512) and ``iterate`` (default schedule and
  ``[8, 16, 32, 64, 100, 200]``) on ``--seed 0``-``9`` and 13 JSON files,
  six ``shift`` runs and ``sweep --seed 42``;
- ``in_process``: 684 records from one process, ``cli.main`` running
  ``decompose``, ``limit``, ``vector-exponent`` and ``semigroup`` in turn on
  each of the 171 files of one ``resolution`` round (seed 301).

Every record must be strict JSON: a ``NaN``, ``Infinity`` or ``-Infinity``
in one stops the script with an error.  A record names its input file, so compare two checkouts with the same WORKDIR,
one after the other: equal OUT files mean byte-identical records and equal
exit statuses.  OUT names each run by its arguments, with WORKDIR spelled
``WORKDIR``.  With KEEP, each record is also copied to KEEP/fresh/I.json or
KEEP/in_process/I.json, I its row in OUT, for ``results/record_diff.py``.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

SEEDS = range(10)
VARIANTS = (
    ("decompose", []),
    ("limit", []),
    ("vector-exponent", []),
    ("semigroup", []),
    ("yamamoto", []),
    ("yamamoto", ["--config", '{"n": 512}']),
    ("iterate", []),
    ("iterate", ["--config", '{"schedule": [8, 16, 32, 64, 100, 200]}']),
)
SHIFTS = (
    {"kind": "harmonic"},
    {"kind": "geometric"},
    {"kind": "constant"},
    {"kind": "blocks"},
    {"kind": "geometric", "ratio": 0.3, "m": 400, "n": 150},
    {"kind": "blocks", "m": 400, "n": 150},
)
IN_PROCESS = ("decompose", "limit", "vector-exponent", "semigroup")


def input_files(workdir: Path) -> list:
    half = np.array([[1, 1], [0, 0.5]])
    mats = [[[1, 1], [0, 2]], [[0, 1], [0, 0]], np.zeros((3, 3)), 2 * np.eye(2), [[1, 1], [0, 0.99]],
            1e200 * half, 1e-40 * half, 1e4 * half]
    rng = np.random.default_rng(7)
    mats += [rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for m in (3, 4, 5)]
    # W1: distinct moduli merged under a large norm, still a wrong answer with
    # exit 0; W2: close moduli of a small matrix, once merged the same way
    mats += [[[1, 1e6], [0, 0.5]], 1e-4 * np.diag([1, 0.995])]
    paths = []
    for i, a in enumerate(mats):
        a = np.asarray(a, dtype=np.complex128)
        path = workdir / f"corpus{i}.json"
        entries = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
        path.write_text(json.dumps({"dim": a.shape[0], "entries": entries}))
        paths.append(path)
    return paths


def not_strict(constant: str):
    raise ValueError(f"record is not strict JSON: it holds {constant}")


def digest(path: Path) -> str:
    data = path.read_bytes()
    json.loads(data, parse_constant=not_strict)
    return hashlib.sha256(data).hexdigest()


def kept(keep, name: str, rows: list, out: Path):
    if keep is not None:
        (keep / name).mkdir(parents=True, exist_ok=True)
        shutil.copy(out, keep / name / f"{len(rows) - 1}.json")


def fresh_records(checkout: Path, workdir: Path, keep=None) -> list:
    sources = [["--input", str(p)] for p in input_files(workdir)] + [["--seed", str(s)] for s in SEEDS]
    runs = [[cmd, *src, *extra] for cmd, extra in VARIANTS for src in sources]
    runs += [["shift", "--config", json.dumps(cfg)] for cfg in SHIFTS] + [["sweep", "--seed", "42"]]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    out, rows = workdir / "record.json", []
    for argv in runs:
        code = subprocess.run(
            [sys.executable, "-m", "satk.cli", *argv, "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        rows.append([" ".join(argv).replace(str(workdir), "WORKDIR"), code, digest(out)])
        kept(keep, "fresh", rows, out)
    return rows


def in_process_records(checkout: Path, workdir: Path, keep=None) -> list:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import workloads
    from satk import cli

    files = workdir / "resolution"
    files.mkdir(exist_ok=True)
    out, rows = workdir / "record.json", []
    for f in workloads.Resolution(301, files).files:
        for cmd in IN_PROCESS:
            code = cli.main([cmd, "--input", str(f.path), "--out", str(out)])
            rows.append([f"{cmd} {f.path.name}", code, digest(out)])
            kept(keep, "in_process", rows, out)
    return rows


def main(checkout, workdir, out, keep=None):
    checkout, workdir = Path(checkout).resolve(), Path(workdir).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    keep = None if keep is None else Path(keep)
    report = {
        "fresh": fresh_records(checkout, workdir, keep),
        "in_process": in_process_records(checkout, workdir, keep),
    }
    Path(out).write_text(json.dumps(report, indent=1) + "\n")
    for name, rows in report.items():
        print(f"{name}: {len(rows)} records, {sum(code == 0 for _, code, _ in rows)} exit 0")


if __name__ == "__main__":
    if len(sys.argv) not in (4, 5):
        sys.exit(__doc__)
    main(*sys.argv[1:])
