"""Run records: deterministic JSON reports and CSV exports.

Records serialize byte-identically for identical (config, seed, version):
keys are sorted, floats use Python's shortest round-trip repr, and the
``wall_time`` key is always null so timing noise never leaks into the bytes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

ARTIFACT_VERSION = "1.0.0"
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
    csv: bool = False
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunRecord:
    config: RunConfig
    checks: list = field(default_factory=list)
    results: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    version: str = ARTIFACT_VERSION
    rng: str = RNG_NAME

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
            "version": self.version,
            "rng": self.rng,
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
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays; complex becomes [re, im]."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)  # "inf" / "-inf" / "nan": JSON has no spelling for these
    return obj


def write_error_csv(path, rows):
    """Per-n error table with the fixed header n,error,log_error."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "error", "log_error"])
        for n, err in rows:
            err = float(err)
            log_err = math.log(err) if err > 0.0 else -math.inf
            writer.writerow([int(n), repr(err), repr(log_err)])


def read_error_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["n", "error", "log_error"]:
            raise ValueError(f"unexpected CSV header {header!r}")
        return [(int(n), float(err), float(log_err)) for n, err, log_err in reader]
