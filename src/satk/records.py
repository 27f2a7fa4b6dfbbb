"""Run records: deterministic JSON reports and CSV exports.

Records serialize byte-identically for identical (config, seed, version):
keys are sorted, floats use Python's shortest round-trip repr, and the
``wall_time`` key is always null so timing noise never leaks into the bytes.
"""

from __future__ import annotations

import csv
import io
import math
import os
import stat
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

ARTIFACT_VERSION = "2.0.0"
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
        return _dumps(self.to_dict()) + "\n"


def _dumps(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)``, byte for byte.

    With an indent, ``json.dumps`` always runs its pure-Python encoder: a
    generator per container and a yield per token.  This returns the same
    bytes with one join per container, and writes a finite float inside a
    list without a call.  ``pad`` is the newline and indent of ``obj``'s line.
    """
    if isinstance(obj, (list, tuple)):
        inner = pad + " "
        items = [float.__repr__(v) if type(v) is float and v - v == 0.0 else _dumps(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if isinstance(obj, dict):
        inner = pad + " "
        items = [encode_basestring_ascii(k) + ": " + _dumps(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj in (math.inf, -math.inf):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays; complex becomes [re, im]."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
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

