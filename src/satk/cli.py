"""Command-line interface: satk <command> --input FILE | --seed N [--config JSON] [--out PATH] [--csv].

Every command produces a RunRecord; the process exits 0 iff all checks in the
record pass.  Module errors are captured into the record, never raised out of
the dispatcher.  The keys a command takes in ``--config``, with their
defaults, are the keyword parameters of its ``_cmd_*`` function.  Any other
key or ``instance`` field, a source the command does not read (``shift``
reads neither ``--input`` nor ``--seed``, ``sweep`` only ``--seed``), a
missing source (any other command needs ``--input`` or ``--seed``, ``sweep``
needs ``--seed``), and an ``--input`` that names no file are usage errors
(exit 2, no record).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import linalg, shifts
from .decomp import dunford
from .errors import UsageError
from .instances import InstanceSpec, generate_instance
from .mmio import parse_matrix, read_source
from .powerit import (
    convergence_study,
    normalized_power,
    vector_exponent_estimates,
    yamamoto_limits,
)
from .records import RunConfig, RunRecord, write_error_csv
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


def _load_config(text):
    if text is None:
        return {}
    obj = json.loads(read_source(text))
    if not isinstance(obj, dict):
        raise UsageError("config must be a JSON object")
    return obj


def _acquire(config: RunConfig, instance):
    """Matrix plus, when seeded, its certified ground-truth decomposition."""
    if config.input_path is not None:
        return parse_matrix(config.input_path), None
    spec = InstanceSpec(**(instance or {}))
    inst = generate_instance(config.seed, spec)
    return inst.matrix, inst


def _decomposition(a, inst):
    return inst.decomposition if inst is not None else dunford(a)


def _sorted_moduli(a, inst):
    if inst is not None:
        return np.sort(np.abs(np.array(inst.eigenvalues)))[::-1]
    return np.sort(np.abs(np.linalg.eigvals(a)))[::-1]


def _cmd_decompose(record, config, tol=1e-8, instance=None):
    a, inst = _acquire(config, instance)
    dec = _decomposition(a, inst)
    m = a.shape[0]
    scale = max(1.0, linalg.norm2(a))
    tol = float(tol) * scale
    record.add_check("reconstruction", linalg.norm2(dec.scalar_part + dec.nilpotent_part - a), tol)
    record.add_check(
        "idempotency",
        max(linalg.norm2(p.matrix @ p.matrix - p.matrix) for p in dec.idempotents),
        tol,
    )
    record.add_check(
        "commutation",
        linalg.norm2(dec.scalar_part @ dec.nilpotent_part - dec.nilpotent_part @ dec.scalar_part),
        tol,
    )
    record.add_check("nilpotency", linalg.norm2(np.linalg.matrix_power(dec.nilpotent_part, m)), tol)
    record.results["eigenvalues"] = [p.cluster.representative for p in dec.idempotents]
    record.results["multiplicities"] = [p.cluster.multiplicity for p in dec.idempotents]
    record.results["condition_bound"] = dec.condition_bound


def _cmd_limit(record, config, tol=1e-8, instance=None):
    a, inst = _acquire(config, instance)
    res = modulus_resolution(_decomposition(a, inst))
    diag = check_resolution(res)
    tol = float(tol)
    record.add_check("idempotency", diag.max_idempotency_residual, tol)
    record.add_check("monotonicity", diag.max_monotonicity_violation, tol)
    record.add_check("top_identity", diag.top_identity_gap, tol)
    k = limit_operator(res)
    record.results["limit_matrix"] = k.matrix
    record.results["moduli"] = list(k.spectrum_moduli)


def _cmd_iterate(record, config, schedule=_DEFAULT_SCHEDULE, tol=1e-3, instance=None):
    a, inst = _acquire(config, instance)
    schedule = [int(n) for n in schedule]
    k = limit_operator(modulus_resolution(_decomposition(a, inst)))
    report = convergence_study(a, schedule, k.matrix)
    record.add_check("final_error", report.errors[-1], float(tol))
    record.results["schedule"] = list(report.schedule)
    record.results["errors"] = list(report.errors)
    record.results["estimated_rate"] = report.estimated_rate
    record.results["csv_rows"] = [[n, e] for n, e in zip(report.schedule, report.errors)]


def _cmd_yamamoto(record, config, n=4096, tol=1e-3, instance=None):
    a, inst = _acquire(config, instance)
    vals = yamamoto_limits(a, int(n))
    expected = _sorted_moduli(a, inst)
    record.add_check("max_deviation", float(np.max(np.abs(vals - expected))), float(tol))
    record.results["limits"] = vals
    record.results["expected"] = expected


def _cmd_vector_exponent(record, config, n=4096, tol=1e-3, vectors=None, instance=None):
    a, inst = _acquire(config, instance)
    n, tol = int(n), float(tol)
    dec = _decomposition(a, inst)
    m = a.shape[0]
    if vectors is not None:
        xs = np.array(
            [[complex(re, im) for re, im in vec] for vec in vectors],
            dtype=np.complex128,
        ).T
    else:
        xs = np.eye(m, dtype=np.complex128)
    exact = np.array([vector_exponent_exact(dec, xs[:, j]) for j in range(xs.shape[1])])
    est = vector_exponent_estimates(a, xs, n)
    record.add_check("max_deviation", float(np.max(np.abs(est - exact))), tol)
    record.results["exact"] = exact
    record.results["estimates"] = est


def _weight_sequence(kind, values, ratio, level):
    """``level=None`` means 1.0 for ``constant`` and 2.0 for ``blocks``."""
    if kind == "explicit":
        if values is None:
            raise UsageError("kind 'explicit' needs 'values'")
        return shifts.explicit(values)
    if kind == "harmonic":
        return shifts.harmonic()
    if kind == "geometric":
        return shifts.geometric(float(ratio))
    if kind == "constant":
        return shifts.constant(float(1.0 if level is None else level))
    if kind == "blocks":
        return shifts.blocks(float(2.0 if level is None else level))
    raise UsageError(f"unknown weight kind {kind!r}")


def _cmd_shift(
    record, config, kind="harmonic", values=None, ratio=0.5, level=None,
    start_max=64, length_max=256, detector_tol=1e-2, m=256, n=32, tol=1e-10,
):
    w = _weight_sequence(kind, values, ratio, level)
    table = shifts.geometric_mean_table(w, int(start_max), int(length_max))
    det = shifts.uniform_limit_detector(table, tol=float(detector_tol))
    record.results["converged"] = det.converged
    record.results["alpha"] = det.alpha
    record.results["witness"] = det.witness
    record.results["backward_converges"] = shifts.backward_classifier(w)
    cross = shifts.shift_power_crosscheck(w, int(m), int(n))
    record.add_check("crosscheck_deviation", cross.max_deviation, float(tol))
    record.results["crosscheck"] = {
        "m": cross.truncation_dim,
        "n": cross.power,
        "interior_cells": cross.interior_cells,
    }


def _cmd_semigroup(record, config, t=200.0, tol=1e-2, instance=None):
    a, inst = _acquire(config, instance)
    t, tol = float(t), float(tol)
    dec = _decomposition(a, inst)
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
    record.add_check("growth_deviation", float(np.max(np.abs(est - exact))), tol)
    record.results["limit_matrix"] = k.matrix
    record.results["real_parts"] = list(res.levels)
    record.results["exact_exponents"] = exact
    record.results["estimates"] = est


def _sweep_one(seed, spec, n):
    inst = generate_instance(seed, spec)
    k = limit_operator(modulus_resolution(inst.decomposition))
    err_k = float(linalg.norm2(normalized_power(inst.matrix, n) - k.matrix))
    expected = _sorted_moduli(inst.matrix, inst)
    err_y = float(np.max(np.abs(yamamoto_limits(inst.matrix, n) - expected)))
    return {"seed": int(seed), "power_error": err_k, "yamamoto_error": err_y}


def _cmd_sweep(record, config, count=50, n=4096, tol=1e-3, instance=None):
    count, n, tol = int(count), int(n), float(tol)
    spec = InstanceSpec(**(instance or {}))
    rows = [_sweep_one(config.seed + i, spec, n) for i in range(count)]
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


def run_command(config: RunConfig) -> RunRecord:
    """Run one command; each usage error the module docstring lists raises UsageError."""
    cmd = _DISPATCH.get(config.command)
    if cmd is None:
        raise UsageError(f"unknown command {config.command!r}")
    record = RunRecord(config=config)
    try:
        bound = inspect.signature(cmd).bind(record, config, **config.params)
    except TypeError as exc:
        raise UsageError(f"{config.command}: {exc}") from None
    try:
        InstanceSpec(**(bound.arguments.get("instance") or {}))
    except TypeError as exc:
        raise UsageError(f"{config.command}: instance: {exc}") from None
    sources = _SOURCES.get(config.command, ("input", "seed"))
    given = {"input": config.input_path, "seed": config.seed}
    for name, value in given.items():
        if value is not None and name not in sources:
            raise UsageError(f"{config.command} does not read '--{name}'")
    if sources and all(given[name] is None for name in sources):
        raise UsageError(f"{config.command} needs " + " or ".join(repr(f"--{s}") for s in sources))
    if config.input_path is not None and not os.path.isfile(config.input_path):
        raise UsageError(f"--input {config.input_path!r} is not a file")
    try:
        cmd(*bound.args, **bound.kwargs)
    except Exception as exc:  # captured, never propagated: the record is the report
        record.add_error(config.command, exc)
    return record


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
        "--csv", action="store_true", help="also write per-n errors next to --out"
    )
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on bad usage; keep main() callable
        return int(exc.code or 0)
    try:
        params = _load_config(args.config)
        if args.seed is not None and args.seed < 0:
            raise UsageError("seed must be a non-negative 64-bit integer")
        record = run_command(
            RunConfig(
                command=args.command,
                seed=args.seed,
                input_path=args.input,
                csv=args.csv,
                params=params,
            )
        )
    except (UsageError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = record.to_json()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.csv:
        rows = record.results.get("csv_rows")
        if rows:
            base = Path(args.out) if args.out else Path("satk_errors.json")
            write_error_csv(base.with_suffix(".csv"), rows)
    return 0 if record.passed else 1


if __name__ == "__main__":
    sys.exit(main())
