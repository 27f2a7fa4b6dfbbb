"""Run records: deterministic JSON reports and CSV exports.

Records serialize byte-identically for identical (config, seed, version):
each is one compact line from the stdlib's C JSON encoder, with sorted keys,
floats in Python's shortest round-trip repr, and a ``wall_time`` key that is
always null so timing noise never leaks into the bytes.  ``python -m
json.tool`` prints a record indented.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import stat
from dataclasses import asdict, dataclass, field

import numpy as np

ARTIFACT_VERSION = "3.0.0"
RNG_NAME = "numpy.random.Generator(PCG64)"


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int | None = None
    input_path: str | None = None
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunRecord:
    config: RunConfig
    checks: list = field(default_factory=list)
    results: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def add_check(self, name: str, value: float, tolerance: float) -> bool:
        value = float(value)
        ok = bool(math.isfinite(value) and value <= tolerance)
        self.checks.append(CheckResult(name, value, float(tolerance), ok))
        return ok

    def add_error(self, context: str, exc: Exception):
        self.errors.append({"context": context, "type": type(exc).__name__, "message": str(exc)})

    @property
    def passed(self) -> bool:
        return not self.errors and all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "version": ARTIFACT_VERSION,
            "rng": RNG_NAME,
            "config": self.config.to_dict(),
            "checks": [
                {
                    "name": c.name,
                    "value": _jsonable(c.value),
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
            "results": _jsonable(self.results),
            "errors": self.errors,
            "passed": self.passed,
            "wall_time": None,  # kept out of the bytes: records must be reproducible
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays; complex becomes [re, im]."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "biufc":
        # a numeric array in one tolist(), its parts as a last axis of [re, im];
        # only one holding a non-finite number is walked, to spell it
        finite = obj.dtype.kind in "biu" or np.isfinite(obj).all()
        if obj.dtype.kind == "c":
            obj = np.stack((obj.real, obj.imag), axis=-1)
        return obj.tolist() if finite else _jsonable(obj.tolist())
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        return [_jsonable(float(obj.real)), _jsonable(float(obj.imag))]
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)  # "inf" / "-inf" / "nan": JSON has no spelling for these
    return obj


def write_text(path, text: str):
    """Write ``text`` to the file ``path`` names, replacing its contents in place.

    The file is opened without ``O_TRUNC``, written from its start and cut at
    the end of ``text``: truncating to zero and closing makes ext4 (and XFS,
    btrfs) start writeback at once, 110-280 us per overwrite against about
    10 us.  As with ``Path.write_text``, a new file gets mode 0o666 under the
    umask, a symlink is followed and a hard link's one inode is written.  Only
    a regular file is cut; a device or a pipe is written as a stream.  Neither
    way calls ``fsync``, but a crash mid-write can now leave a mix of new and
    old bytes, where ``O_TRUNC`` left an empty or partial file.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(text.encode())
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def write_error_csv(path, rows):
    """Per-n error table with the fixed header n,error,log_error and CRLF row ends."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["n", "error", "log_error"])
    for n, err in rows:
        err = float(err)
        log_err = math.log(err) if err > 0.0 else -math.inf
        writer.writerow([int(n), repr(err), repr(log_err)])
    write_text(path, buf.getvalue())

