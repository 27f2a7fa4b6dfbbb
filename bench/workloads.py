"""The four workloads: inputs made from the seed, program calls timed, outputs checked.

A workload hands out rounds of items.  An item calls into satk, times only
those calls, and checks every output against ``reference`` (numpy alone).
Every run attempts whole rounds, so a fault that fails one fixed item every
time is the same share of ``attempted`` in every run.

satk is reached through its module attributes (``powerit.normalized_power``,
never a name bound here), so the tracer's wrappers see the benchmark's calls
as well as satk's own.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
from satk import cli, instances, powerit, resolution

N_FLAG = 4096
SCHEDULE = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
DIMS = range(2, 9)
WARM_DIM = 5
TOL_ESTIMATE = 1e-3  # large-n estimators against the closed form
TOL_CLOSED = 1e-6  # closed forms against the reference
TOL_GROWTH = 1e-2  # continuous-time growth estimates at t = 200
TOL_IDENTITY = 1e-8  # decompose residuals, relative to max(1, ||A||)
TOL_DATA = 1e-9  # generated spectral data against its matrix
TOL_ROUNDING = 1e-12  # an error this small is rounding, not a trend
TOL_CROSSCHECK = 1e-10  # shift powers against the mean table
SHIFT_M, SHIFT_N = 256, 32
SEMIGROUP = {"t": 200.0, "instance": {"min_real_gap": 0.2}}
RESOLUTION_FILES = 168  # seeded files per round: each dim 2-8 in each format, 8 times
JORDAN_K = (4, 6, 8)
FORMATS = ("mm-array", "mm-coordinate", "json")


@dataclass
class Outcome:
    seconds: float  # time spent inside satk calls
    errors: dict = field(default_factory=dict)  # check name -> message, empty when verified
    estimator_error: float | None = None  # worst powerit estimate error, for the trace
    expected_failure: bool = False  # one of the named items kept as failing

    @property
    def ok(self) -> bool:
        return not self.errors


class Clock:
    """Sums the time of the marked satk calls in one item."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._t0


def _check(errors: dict, name: str, value: float, tol: float):
    if not (np.isfinite(value) and value <= tol):
        errors[name] = f"{float(value)!r} > {tol!r}"


def _instance_reference(inst, errors):
    """Spectral data of a generated instance, checked against its matrix."""
    lam = np.array(inst.eigenvalues)
    v = inst.generalized_eigenvectors
    _check(errors, "spectral_data", ref.spectral_data_residual(inst.matrix, lam, v), TOL_DATA)
    return lam, v


def _norm2(a) -> float:
    return float(np.linalg.norm(a, 2))


def seeded_rng(seed: int, stream: int):
    """The generator of one input stream; any integer seed is accepted."""
    return np.random.default_rng([seed & (2**64 - 1), stream])


class Seeded:
    """Draws (instance seed, dim) pairs; the warm-up seed is never drawn again.

    The warm-up instance has dim WARM_DIM, so that it always takes the flag
    path and set-up costs the same on every seed."""

    def __init__(self, seed: int, stream: int):
        self.rng = seeded_rng(seed, stream)
        self.warm = (self._pair()[0], WARM_DIM)

    def _pair(self):
        return int(self.rng.integers(2**32)), int(self.rng.integers(DIMS.start, DIMS.stop))

    def draw(self):
        pair = self._pair()
        while pair[0] == self.warm[0]:
            pair = self._pair()
        return pair


# --- family -----------------------------------------------------------------


class Family:
    """One fresh instance per item: closed form, then the three flag estimators."""

    name = "family"

    def __init__(self, seed: int, workdir: Path):
        self.seeds = Seeded(seed, 1)

    def warmup(self):
        return lambda: family_item(*self.seeds.warm)

    def round(self):
        return [lambda p=self.seeds.draw(): family_item(*p)]


def _family_vectors(rng, lam, v):
    """Each generalized eigenvector, one generic vector, and one that sees only
    the levels up to a random cut."""
    mods = np.abs(lam)
    c_all, c_low = rng.standard_normal((2, len(lam))) + 1j * rng.standard_normal((2, len(lam)))
    c_low[mods > rng.choice(mods)] = 0.0
    return np.column_stack([v, v @ c_all, v @ c_low])


def family_item(seed: int, dim: int) -> Outcome:
    clock = Clock()
    errors = {}
    with clock:
        inst = instances.generate_instance(seed, instances.InstanceSpec(dim=dim))
    lam, v = _instance_reference(inst, errors)
    xs = _family_vectors(np.random.default_rng(seed), lam, v)
    a = inst.matrix
    with clock:
        closed = resolution.limit_operator(resolution.modulus_resolution(inst.decomposition))
        power = powerit.normalized_power(a, N_FLAG)
        yam = powerit.yamamoto_limits(a, N_FLAG)
        est = powerit.vector_exponent_estimates(a, xs, N_FLAG)
        exact = np.array(
            [resolution.vector_exponent_exact(inst.decomposition, xs[:, j]) for j in range(xs.shape[1])]
        )
    k_ref = ref.discrete_limit(lam, v)
    exps = ref.vector_exponents(np.abs(lam), v, xs)
    worst = {
        "normalized_power": _norm2(power - k_ref),
        "yamamoto": float(np.max(np.abs(yam - ref.descending_moduli(lam)))),
        "vector_estimates": float(np.max(np.abs(est - exps))),
    }
    for name, value in worst.items():
        _check(errors, name, value, TOL_ESTIMATE)
    _check(errors, "vector_exact", float(np.max(np.abs(exact - exps))), TOL_ESTIMATE)
    _check(errors, "limit_operator", _norm2(closed.matrix - k_ref), TOL_CLOSED)
    return Outcome(clock.total, errors, estimator_error=max(worst.values()))


# --- schedule ---------------------------------------------------------------


class Schedule:
    """One fresh instance per item, studied over the default schedule 16..4096."""

    name = "schedule"

    def __init__(self, seed: int, workdir: Path):
        self.seeds = Seeded(seed, 2)

    def warmup(self):
        return lambda: schedule_item(*self.seeds.warm)

    def round(self):
        return [lambda p=self.seeds.draw(): schedule_item(*p)]


def schedule_item(seed: int, dim: int) -> Outcome:
    clock = Clock()
    errors = {}
    with clock:
        inst = instances.generate_instance(seed, instances.InstanceSpec(dim=dim))
    lam, v = _instance_reference(inst, errors)
    k_ref = ref.discrete_limit(lam, v)
    with clock:
        report = powerit.convergence_study(inst.matrix, SCHEDULE, k_ref)
    last, first = report.errors[-1], report.errors[0]
    _check(errors, "error_4096", last, TOL_ESTIMATE)
    # A scalar matrix (dim 2, one double eigenvalue, no nilpotent part) is at
    # its limit from n = 1: both errors are rounding, and neither is smaller.
    if not (last < first or first <= TOL_ROUNDING):
        errors["decrease"] = f"error(4096) = {last!r} >= error(16) = {first!r}"
    return Outcome(clock.total, errors, estimator_error=last)


# --- resolution -------------------------------------------------------------


def _mm_text(a, layout: str) -> str:
    m = a.shape[0]
    if layout == "array":
        lines = ["%%MatrixMarket matrix array complex general", f"{m} {m}"]
        cells = [("", z) for z in a.T.reshape(-1)]
    else:
        lines = ["%%MatrixMarket matrix coordinate complex general", f"{m} {m} {m * m}"]
        cells = [(f"{i + 1} {j + 1} ", a[i, j]) for j in range(m) for i in range(m)]
    lines += [f"{at}{float(z.real)!r} {float(z.imag)!r}" for at, z in cells]
    return "\n".join(lines) + "\n"


def write_matrix(path: Path, a, fmt: str):
    """Write ``a`` with every digit, so the parsed matrix equals ``a`` exactly."""
    a = np.asarray(a, dtype=np.complex128)
    if fmt == "json":
        entries = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
        path.write_text(json.dumps({"dim": int(a.shape[0]), "entries": entries}))
    else:
        path.write_text(_mm_text(a, fmt.split("-", 1)[1]))


def jordan_input(k: int):
    """S^-1 (J_k(0.5) + [1]) S with S = I + 0.1 G: the spectral data and the matrix.

    These do not depend on the seed: G comes from default_rng(0)."""
    m = k + 1
    g = np.random.default_rng(0).standard_normal((m, m))
    s = np.eye(m) + 0.1 * g
    j = np.diag(np.r_[np.full(k, 0.5), 1.0]) + np.diag(np.r_[np.ones(k - 1), 0.0], 1)
    v = np.linalg.inv(s).astype(np.complex128)
    lam = np.r_[np.full(k, 0.5), 1.0].astype(np.complex128)
    return v @ j @ s, lam, v


@dataclass
class MatrixFile:
    path: Path
    matrix: np.ndarray
    eigenvalues: np.ndarray
    limit: np.ndarray
    jordan: bool


class Resolution:
    """Matrix files through ``satk decompose`` and ``satk limit``, in process.

    A round is the seeded files (every dim 2-8 in every format, eight times)
    and then the three Jordan inputs, which fail today and are kept as failing.
    """

    name = "resolution"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.seeds = Seeded(seed, 3)
        self.files = [self._seeded_file(i, self.seeds.draw()[0]) for i in range(RESOLUTION_FILES)]
        for k in JORDAN_K:
            a, lam, v = jordan_input(k)
            path = workdir / f"jordan{k}.json"
            write_matrix(path, a, "json")
            self.files.append(MatrixFile(path, a, lam, ref.discrete_limit(lam, v), True))
        self.warm = self._seeded_file(-1, self.seeds.warm[0])

    def _seeded_file(self, i: int, seed: int) -> MatrixFile:
        dim = DIMS[i % len(DIMS)]
        fmt = FORMATS[i % len(FORMATS)]
        inst = instances.generate_instance(seed, instances.InstanceSpec(dim=dim))
        errors = {}
        lam, v = _instance_reference(inst, errors)
        if errors:
            raise RuntimeError(f"instance {seed}: {errors}")
        path = self.workdir / f"m{i + 1}.{'json' if fmt == 'json' else 'mtx'}"
        write_matrix(path, inst.matrix, fmt)
        return MatrixFile(path, inst.matrix, lam, ref.discrete_limit(lam, v), False)

    def warmup(self):
        return lambda: resolution_item(self.warm, self.workdir)

    def round(self):
        return [lambda f=f: resolution_item(f, self.workdir) for f in self.files]


def _record(path: Path) -> dict:
    return json.loads(path.read_text())


def _record_checks(record) -> dict:
    return {c["name"]: c["value"] for c in record["checks"]}


def _matrix(pairs) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


def _same_spectrum(found, multiplicities, expected) -> float:
    """Largest distance in a greedy match of the clustered eigenvalues
    (repeated by multiplicity) to the expected ones; inf if counts differ."""
    found = [complex(re, im) for (re, im), k in zip(found, multiplicities) for _ in range(k)]
    expected = list(expected)
    if len(found) != len(expected):
        return float("inf")
    worst = 0.0
    for z in found:
        dist = [abs(z - w) for w in expected]
        i = int(np.argmin(dist))
        worst = max(worst, dist[i])
        expected.pop(i)
    return worst


def resolution_item(f: MatrixFile, workdir: Path) -> Outcome:
    clock = Clock()
    errors = {}
    out_dec = workdir / "decompose.json"
    out_lim = workdir / "limit.json"
    with clock:
        rc_dec = cli.main(["decompose", "--input", str(f.path), "--out", str(out_dec)])
        rc_lim = cli.main(["limit", "--input", str(f.path), "--out", str(out_lim)])
    dec, lim = _record(out_dec), _record(out_lim)
    if rc_dec != 0 or rc_lim != 0:
        errors["exit"] = f"decompose {rc_dec}, limit {rc_lim}: {dec['errors'] + lim['errors']}"
    checks = _record_checks(dec)
    tol = TOL_IDENTITY * max(1.0, _norm2(f.matrix))
    for name in ("reconstruction", "idempotency", "commutation"):
        _check(errors, f"decompose.{name}", checks.get(name, float("inf")), tol)
    results = dec["results"]
    spectrum = _same_spectrum(
        results.get("eigenvalues", []), results.get("multiplicities", []), f.eigenvalues
    )
    _check(errors, "decompose.eigenvalues", spectrum, TOL_CLOSED)
    k = lim["results"].get("limit_matrix")
    limit_error = _norm2(_matrix(k) - f.limit) if k is not None else float("inf")
    _check(errors, "limit_matrix", limit_error, TOL_CLOSED)
    return Outcome(clock.total, errors, expected_failure=f.jordan)


# --- analogues --------------------------------------------------------------


class Analogues:
    """One item: `satk shift` over the four weight kinds, then `satk semigroup`."""

    name = "analogues"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = seeded_rng(seed, 4)
        self.warm = self.draw()

    def draw(self):
        return {
            "constant": float(self.rng.uniform(0.5, 2.0)),
            "blocks": float(self.rng.uniform(1.5, 3.0)),
            "semigroup_seed": int(self.rng.integers(2**32)),
        }

    def warmup(self):
        return lambda: analogues_item(self.warm, self.workdir)

    def round(self):
        return [lambda p=self.draw(): analogues_item(p, self.workdir)]


def _shift_configs(p):
    base = {"m": SHIFT_M, "n": SHIFT_N}
    return [
        {"kind": "harmonic", **base},
        {"kind": "geometric", "ratio": 0.5, **base},
        {"kind": "constant", "level": p["constant"], **base},
        {"kind": "blocks", "level": p["blocks"], **base},
    ]


def analogues_item(p: dict, workdir: Path) -> Outcome:
    clock = Clock()
    errors = {}
    out = workdir / "analogue.json"
    for config in _shift_configs(p):
        kind = config["kind"]
        with clock:
            rc = cli.main(["shift", "--config", json.dumps(config), "--out", str(out)])
        record = _record(out)
        results = record["results"]
        facts = ref.shift_facts(kind, config.get("level", 0.0))
        if rc != 0:
            errors[f"{kind}.exit"] = f"{rc}: {record['errors']}"
        for key in ("converged", "backward_converges"):
            if results.get(key) != facts[key]:
                errors[f"{kind}.{key}"] = f"{results.get(key)!r} != {facts[key]!r}"
        if "alpha" in facts:
            alpha = results.get("alpha")
            gap = abs(alpha - facts["alpha"]) if alpha is not None else float("inf")
            _check(errors, f"{kind}.alpha", gap, TOL_CLOSED)
        deviation = _record_checks(record).get("crosscheck_deviation", float("inf"))
        _check(errors, f"{kind}.crosscheck", deviation, TOL_CROSSCHECK)

    seed = p["semigroup_seed"]
    inst = instances.generate_instance(seed, instances.InstanceSpec(**SEMIGROUP["instance"]))
    lam, v = _instance_reference(inst, errors)
    with clock:
        rc = cli.main(["semigroup", "--seed", str(seed), "--config", json.dumps(SEMIGROUP), "--out", str(out)])
    record = _record(out)
    results = record["results"]
    if rc != 0:
        errors["semigroup.exit"] = f"{rc}: {record['errors']}"
    k = results.get("limit_matrix")
    _check(
        errors,
        "semigroup.limit",
        _norm2(_matrix(k) - ref.continuous_limit(lam, v)) if k is not None else float("inf"),
        TOL_CLOSED,
    )
    exps = ref.vector_exponents(np.real(lam), v, np.eye(len(lam)))
    for key in ("estimates", "exact_exponents"):
        got = np.array(results.get(key, [np.inf] * len(lam)), dtype=float)
        _check(errors, f"semigroup.{key}", float(np.max(np.abs(got - exps))), TOL_GROWTH)
    return Outcome(clock.total, errors)


WORKLOADS = {w.name: w for w in (Family, Schedule, Resolution, Analogues)}
