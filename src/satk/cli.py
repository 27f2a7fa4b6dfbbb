"""Command-line interface: satk <command> --input FILE | --seed N [--config JSON] [--out PATH] [--csv].

Every command produces a RunRecord; the process exits 0 iff all checks in the
record pass.  Module errors are captured into the record, never raised out of
the dispatcher.  The keys a command takes in ``--config``, with their
defaults, are the keyword parameters of its ``_cmd_*`` function.  Any other
key or ``instance`` field, a source the command does not read (``shift``
reads neither ``--input`` nor ``--seed``, ``sweep`` only ``--seed``), a
missing source (any other command needs ``--input`` or ``--seed``, ``sweep``
needs ``--seed``), both ``--input`` and ``--seed``, an ``instance`` with
``--input``, an ``--input`` that names no file, a ``--config`` that is
neither a file nor a JSON object, a non-finite number anywhere in ``--config``
(``NaN``, ``Infinity``, ``-Infinity`` or one past float range such as
``1e400``: a record must stay strict JSON) and ``--csv`` on a command other
than ``iterate`` are usage errors (exit 2, no record).  So is an ``--out`` that
names a directory or lies in no directory, before the command runs; an
``--out`` (or its CSV) that cannot be written for another reason exits 2
after the command has run.
"""

from __future__ import annotations

import argparse
import errno
import functools
import inspect
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import linalg, shifts
from .decomp import dunford, schur_form
from .errors import InvalidInput, UsageError, positive_int, real_number
from .instances import InstanceSpec, generate_instance
from .mmio import complex_pairs, parse_matrix, read_source
from .powerit import (
    convergence_study,
    normalized_power,
    vector_exponent_estimates,
    yamamoto_limits,
)
from .records import RunConfig, RunRecord, write_error_csv, write_text
from .resolution import (
    check_resolution,
    limit_operator,
    modulus_resolution,
    vector_exponent_exact,
)
from .semigroup import (
    exp_growth_estimate,
    exp_growth_exponent_exact,
    halfplane_resolution,
    semigroup_limit,
)

_DEFAULT_SCHEDULE = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
# The sources a command reads where that is not both --input and --seed:
# shift builds its own weight sequence and sweep draws seeded instances.
_SOURCES = {"shift": (), "sweep": ("seed",)}


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise UsageError(f"'--config' holds the non-finite number {text}")
    return value


def _load_config(text):
    if text is None:
        return {}
    try:
        obj = json.loads(read_source(text), parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as exc:
        raise UsageError(f"'--config' is no file and no JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise UsageError("config must be a JSON object")
    return obj


def _acquire(config: RunConfig, instance: InstanceSpec):
    """The matrix of ``--input``, or the generated instance of ``--seed``: the
    command then takes the same numeric path whichever made it."""
    if config.input_path is not None:
        return parse_matrix(config.input_path)
    return generate_instance(config.seed, instance).matrix


def _sorted_moduli(a):
    return np.sort(np.abs(np.linalg.eigvals(a)))[::-1]


def _relative(tol, moduli):
    """tol times rho(A), the largest of ``moduli``; tol itself where rho(A) = 0.
    The estimators' answers scale with rho(A), so an absolute check would pass
    any answer at small scale and fail rounding at large scale."""
    return tol * moduli[0] if moduli[0] > 0.0 else tol


def _residual(x) -> float:
    """||x||_2, or inf where x has left float range (its SVD would not converge)."""
    return linalg.norm2(x) if np.isfinite(x).all() else math.inf


def _cmd_decompose(record, config, tol=1e-8, instance=None):
    a = _acquire(config, instance)
    dec = dunford(a)
    d = dec.scalar_part
    n = dec.matrix - d  # dec.nilpotent_part, without forming D again
    m = a.shape[0]
    # The one floored scale: the four residuals carry the powers 1, 0, 2 and m
    # of ||A||, so no single power of ||A|| is homogeneous for all of them.
    scale = max(1.0, schur_form(a)[2])
    tol *= scale
    # a product past float range fails its check in the record, not on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        record.add_check("reconstruction", _residual(d + n - a), tol)
        record.add_check(
            "idempotency",
            max(_residual(p.matrix @ p.matrix - p.matrix) for p in dec.idempotents),
            tol,
        )
        record.add_check("commutation", _residual(d @ n - n @ d), tol)
        record.add_check("nilpotency", _residual(np.linalg.matrix_power(n, m)), tol)
    record.results["eigenvalues"] = [p.cluster.representative for p in dec.idempotents]
    record.results["multiplicities"] = [p.cluster.multiplicity for p in dec.idempotents]
    record.results["condition_bound"] = dec.condition_bound


def _cmd_limit(record, config, tol=1e-8, instance=None):
    a = _acquire(config, instance)
    res = modulus_resolution(dunford(a))
    record.add_check("invariant_subspace", check_resolution(a, res), tol)
    k = limit_operator(res)
    record.results["limit_matrix"] = k.matrix
    record.results["moduli"] = list(k.spectrum_moduli)


def _cmd_iterate(record, config, schedule=_DEFAULT_SCHEDULE, tol=1e-3, instance=None):
    a = _acquire(config, instance)
    k = limit_operator(modulus_resolution(dunford(a)))
    report = convergence_study(a, schedule, k.matrix)
    tol = _relative(tol, _sorted_moduli(a))
    record.add_check("final_error", report.errors[-1], tol)
    record.results["schedule"] = schedule
    record.results["errors"] = list(report.errors)


def _cmd_yamamoto(record, config, n=4096, tol=1e-3, instance=None):
    a = _acquire(config, instance)
    vals = yamamoto_limits(a, n)
    expected = _sorted_moduli(a)
    tol = _relative(tol, expected)
    record.add_check("max_deviation", float(np.max(np.abs(vals - expected))), tol)
    record.results["limits"] = vals
    record.results["expected"] = expected


def _cmd_vector_exponent(record, config, n=4096, tol=1e-3, vectors=None, instance=None):
    a = _acquire(config, instance)
    dec = dunford(a)
    m = a.shape[0]
    if vectors is not None:
        if not (
            isinstance(vectors, list)
            and vectors
            and all(isinstance(vec, list) and len(vec) == len(vectors[0]) for vec in vectors)
        ):
            raise InvalidInput("vectors must be a nonempty list of equal-length lists of [re, im] pairs")
        xs = np.array([complex_pairs(vec, f"vectors[{j}] entry") for j, vec in enumerate(vectors)]).T
    else:
        xs = np.eye(m, dtype=np.complex128)
    exact = np.array([vector_exponent_exact(dec, xs[:, j]) for j in range(xs.shape[1])])
    est = vector_exponent_estimates(a, xs, n)
    tol = _relative(tol, _sorted_moduli(a))
    record.add_check("max_deviation", float(np.max(np.abs(est - exact))), tol)
    record.results["exact"] = exact
    record.results["estimates"] = est


def _cmd_shift(
    record, config, kind="harmonic", values=None, ratio=None, level=None,
    start_max=64, length_max=256, detector_tol=1e-2, m=256, n=32, tol=1e-10,
):
    w = shifts.WeightSequence(kind, values=values, ratio=ratio, level=level)
    table = shifts.geometric_mean_table(w, start_max, length_max)
    det = shifts.uniform_limit_detector(table, tol=detector_tol)
    record.results["converged"] = det.converged
    record.results["alpha"] = det.alpha
    record.results["witness"] = det.witness
    record.results["backward_converges"] = shifts.backward_classifier(w)
    record.add_check("crosscheck_deviation", shifts.shift_power_crosscheck(w, m, n), tol)
    record.results["crosscheck"] = {"m": m, "n": n, "interior_cells": m - n}


def _cmd_semigroup(record, config, t=200.0, tol=1e-2, instance=None):
    a = _acquire(config, instance)
    dec = dunford(a)
    res = halfplane_resolution(dec)
    k = semigroup_limit(res)
    expected = []
    prev_rank = 0
    for value, g in zip(k.spectrum_moduli, res.projections):
        rank = linalg.matrix_rank(g)
        expected.extend([value] * (rank - prev_rank))
        prev_rank = rank
    eigs = np.sort(np.linalg.eigvalsh(k.matrix))
    record.add_check(
        "limit_spectrum", float(np.max(np.abs(eigs - np.sort(expected)))), 1e-6
    )
    m = a.shape[0]
    exact = np.array([exp_growth_exponent_exact(dec, np.eye(m)[:, j]) for j in range(m)])
    est = np.array([exp_growth_estimate(a, np.eye(m)[:, j], t) for j in range(m)])
    tol = _relative(tol, _sorted_moduli(a))
    record.add_check("growth_deviation", float(np.max(np.abs(est - exact))), tol)
    record.results["limit_matrix"] = k.matrix
    record.results["real_parts"] = list(res.levels)
    record.results["exact_exponents"] = exact
    record.results["estimates"] = est


def _sweep_one(seed, spec, n):
    a = generate_instance(seed, spec).matrix
    k = limit_operator(modulus_resolution(dunford(a)))
    err_k = float(linalg.norm2(normalized_power(a, n) - k.matrix))
    err_y = float(np.max(np.abs(yamamoto_limits(a, n) - _sorted_moduli(a))))
    return {"seed": int(seed), "power_error": err_k, "yamamoto_error": err_y}


def _cmd_sweep(record, config, count=50, n=4096, tol=1e-3, instance=None):
    rows = [_sweep_one(config.seed + i, instance, n) for i in range(count)]
    max_k = max(r["power_error"] for r in rows)
    max_y = max(r["yamamoto_error"] for r in rows)
    record.add_check("max_power_error", max_k, tol)
    record.add_check("max_yamamoto_error", max_y, tol)
    record.results["count"] = count
    record.results["n"] = n
    record.results["pass_rate"] = sum(
        r["power_error"] <= tol and r["yamamoto_error"] <= tol for r in rows
    ) / count
    record.results["instances"] = rows


_DISPATCH = {
    "decompose": _cmd_decompose,
    "limit": _cmd_limit,
    "iterate": _cmd_iterate,
    "yamamoto": _cmd_yamamoto,
    "vector-exponent": _cmd_vector_exponent,
    "shift": _cmd_shift,
    "semigroup": _cmd_semigroup,
    "sweep": _cmd_sweep,
}


_signature = functools.cache(inspect.signature)
# Each --config value is checked by the type of its parameter's default.
_CHECKS = {int: positive_int, float: real_number}


def run_command(config: RunConfig) -> RunRecord:
    """Run one command; each usage error the module docstring lists raises UsageError."""
    cmd = _DISPATCH.get(config.command)
    if cmd is None:
        raise UsageError(f"unknown command {config.command!r}")
    record = RunRecord(config=config)
    try:
        bound = _signature(cmd).bind(record, config, **config.params)
    except TypeError as exc:
        raise UsageError(f"{config.command}: {exc}") from None
    if "instance" in bound.signature.parameters:
        try:
            bound.arguments["instance"] = InstanceSpec(**(config.params.get("instance") or {}))
        except TypeError as exc:
            raise UsageError(f"{config.command}: instance: {exc}") from None
    sources = _SOURCES.get(config.command, ("input", "seed"))
    given = {"input": config.input_path, "seed": config.seed}
    for name, value in given.items():
        if value is not None and name not in sources:
            raise UsageError(f"{config.command} does not read '--{name}'")
    if sources and all(given[name] is None for name in sources):
        raise UsageError(f"{config.command} needs " + " or ".join(repr(f"--{s}") for s in sources))
    if config.input_path is not None and config.seed is not None:
        raise UsageError(f"{config.command} reads '--input' or '--seed', not both")
    if config.input_path is not None and "instance" in config.params:
        raise UsageError(f"{config.command} reads no 'instance' with '--input'")
    if config.input_path is not None and not os.path.isfile(config.input_path):
        raise UsageError(f"--input {config.input_path!r} is not a file")
    try:
        for name, value in bound.arguments.items():
            check = _CHECKS.get(type(bound.signature.parameters[name].default))
            if check is not None:
                bound.arguments[name] = check(value, name)
        cmd(*bound.args, **bound.kwargs)
    except Exception as exc:  # captured, never propagated: the record is the report
        record.add_error(config.command, exc)
    return record


@functools.cache  # one parser per process: argparse keeps no state between parses
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="satk", description="Spectral asymptotics toolkit for finite matrices."
    )
    parser.add_argument("command", choices=_DISPATCH)
    parser.add_argument("--input", help="matrix file (Matrix Market or JSON schema)")
    parser.add_argument("--seed", type=int, help="seed for a generated instance")
    parser.add_argument("--config", help="JSON object (inline or a file path) with parameters")
    parser.add_argument("--out", help="write the RunRecord JSON here (default: stdout)")
    parser.add_argument(
        "--csv", action="store_true", help="iterate only: also write the per-n errors next to --out"
    )
    return parser


def _check_out(path):
    """Raise the error that writing ``path`` would, where a stat can tell:
    ``path`` is a directory, or its directory is missing."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on bad usage; keep main() callable
        return int(exc.code or 0)
    try:
        params = _load_config(args.config)
        if args.seed is not None and args.seed < 0:
            raise UsageError("seed must be a non-negative 64-bit integer")
        if args.csv and args.command != "iterate":
            raise UsageError(f"{args.command} does not write '--csv'")
        if args.out:
            _check_out(args.out)
        record = run_command(
            RunConfig(
                command=args.command,
                seed=args.seed,
                input_path=args.input,
                params=params,
            )
        )
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = record.to_json()
    try:
        if args.out:
            write_text(args.out, text)
        else:
            sys.stdout.write(text)
        if args.csv and "schedule" in record.results:
            base = Path(args.out) if args.out else Path("satk_errors.json")
            rows = zip(record.results["schedule"], record.results["errors"])
            write_error_csv(base.with_suffix(".csv"), rows)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if record.passed else 1


if __name__ == "__main__":
    sys.exit(main())
