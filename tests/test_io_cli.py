import errno
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import satk
from satk import cli, decomp, linalg, mmio, records
from satk.cli import main, run_command
from satk.errors import InvalidInput, ParseError
from satk.instances import InstanceSpec, generate_instance
from satk.mmio import parse_matrix
from satk.powerit import normalized_power
from satk.records import ARTIFACT_VERSION, RunConfig, write_error_csv

from conftest import clear_memos, dt_like, satk_memos, similar_jordan
from oracles import jsonable, matrix_to_json, parse_matrix_per_entry, read_error_csv

FIXTURE_JSON = '{"dim": 2, "entries": [[1, 0], [1, 0], [0, 0], [2, 0]]}'

MM_ARRAY_IDENTITY = """%%MatrixMarket matrix array complex general
% 2x2 identity
2 2
1.0 0.0
0.0 0.0
0.0 0.0
1.0 0.0
"""

MM_COORD = """%%MatrixMarket matrix coordinate complex general
2 2 3
1 1 1.0 0.0
1 2 1.0 -0.5
2 2 2.0 0.0
"""


def test_parse_json_schema():
    a = parse_matrix(FIXTURE_JSON)
    assert np.array_equal(a, np.array([[1, 1], [0, 2]], dtype=complex))


def test_parse_mm_array_identity():
    assert np.array_equal(parse_matrix(MM_ARRAY_IDENTITY), np.eye(2, dtype=complex))


def test_parse_mm_coordinate():
    a = parse_matrix(MM_COORD)
    assert a[0, 1] == 1.0 - 0.5j
    assert a[1, 0] == 0.0


def test_parse_mm_real_field():
    text = "%%MatrixMarket matrix array real general\n2 2\n1\n3\n2\n4\n"
    assert np.array_equal(parse_matrix(text).real, np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_parse_truncated_mm_reports_line():
    truncated = "%%MatrixMarket matrix array complex general\n2 2\n1.0 0.0\n"
    with pytest.raises(ParseError) as exc:
        parse_matrix(truncated)
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)


def test_parse_malformed_entry_reports_line():
    bad = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 3.0\n"
    with pytest.raises(ParseError) as exc:
        parse_matrix(bad)
    assert exc.value.line == 3


def test_parse_non_square_rejected():
    with pytest.raises(InvalidInput):
        parse_matrix("%%MatrixMarket matrix array real general\n2 3\n1\n2\n3\n4\n5\n6\n")


class _Allocated(Exception):
    pass


@pytest.mark.parametrize(
    "text",
    [
        "%%MatrixMarket matrix coordinate real general\n1000000 1000000 0\n",
        f"%%MatrixMarket matrix coordinate real general\n{mmio.MAX_DIM + 1} {mmio.MAX_DIM + 1} 0\n",
        "%%MatrixMarket matrix coordinate real general\n2 3 0\n",
        "%%MatrixMarket matrix array real general\n3 2\n1\n2\n3\n4\n5\n6\n",
        f'{{"dim": {mmio.MAX_DIM + 1}, "entries": []}}',
    ],
    ids=["coordinate-1e6", "coordinate-cap", "coordinate-2x3", "array-3x2", "json-cap"],
)
def test_parse_refuses_declared_size_before_allocating(monkeypatch, text):
    def allocate(shape, *args, **kwargs):
        raise _Allocated(shape)

    monkeypatch.setattr(mmio.np, "zeros", allocate)
    monkeypatch.setattr(mmio.np, "empty", allocate)
    with pytest.raises(InvalidInput):
        parse_matrix(text)


def test_parse_allocates_at_the_dimension_cap(monkeypatch):
    def allocate(shape, *args, **kwargs):
        raise _Allocated(shape)

    monkeypatch.setattr(mmio.np, "zeros", allocate)
    text = f"%%MatrixMarket matrix coordinate real general\n{mmio.MAX_DIM} {mmio.MAX_DIM} 0\n"
    with pytest.raises(_Allocated) as exc:
        parse_matrix(text)
    assert exc.value.args[0] == (mmio.MAX_DIM, mmio.MAX_DIM)


def test_parse_bad_json_schema():
    with pytest.raises(ParseError):
        parse_matrix('{"dim": 2, "entries": [[1, 0]]}')
    with pytest.raises(ParseError):
        parse_matrix("{not json")


def test_json_roundtrip(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(parse_matrix(json.dumps(matrix_to_json(a))), a)


def test_parse_from_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(FIXTURE_JSON)
    assert parse_matrix(path)[1, 1] == 2.0


def test_csv_roundtrip(tmp_path):
    rows = [(16, 0.5), (32, 0.25), (64, 0.0)]
    path = tmp_path / "errors.csv"
    write_error_csv(path, rows)
    text = path.read_text()
    assert text.splitlines()[0] == "n,error,log_error"
    loaded = read_error_csv(path)
    assert loaded[0] == (16, 0.5, pytest.approx(np.log(0.5)))
    assert loaded[2][2] == -np.inf


def test_cli_limit_fixture(tmp_path, capsys):
    src = tmp_path / "a.json"
    src.write_text(FIXTURE_JSON)
    out = tmp_path / "record.json"
    code = main(["limit", "--input", str(src), "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["passed"] is True
    k = np.array([[complex(re, im) for re, im in row] for row in rec["results"]["limit_matrix"]])
    assert np.linalg.norm(k - np.diag([1.0, 2.0])) < 1e-9
    assert rec["wall_time"] is None


def _cli_run(tmp_path, a, command="limit"):
    src = tmp_path / "a.json"
    src.write_text(json.dumps(matrix_to_json(a)))
    out = tmp_path / "record.json"
    code = main([command, "--input", str(src), "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize(
    "c, command, tol, code",
    [
        (1e200, "yamamoto", 1e-3, 0),
        (1e200, "iterate", 1e-3, 0),
        (1e200, "vector-exponent", 1e-3, 0),
        (1e-40, "yamamoto", 1e-3, 0),
        (1e-40, "iterate", 1e-3, 0),
        (1e-40, "vector-exponent", 1e-3, 0),
        (1e-40, "semigroup", 1e-2, 1),
        (0.0, "yamamoto", 1e-3, 0),
        (0.0, "semigroup", 1e-2, 0),
    ],
)
def test_cli_estimator_tolerance_is_relative_to_the_spectral_radius(tmp_path, c, command, tol, code):
    # rho(c [[1, 1], [0, 0.5]]) = c: at 1e200 the deviations of 7e-11 relative
    # pass; at 1e-40 semigroup's estimate 0 of the exponents 1e-40 fails; at
    # rho = 0 the check stays absolute
    got, rec = _cli_run(tmp_path, c * np.array([[1.0, 1.0], [0.0, 0.5]]), command)
    assert (got, rec["errors"]) == (code, [])
    assert rec["checks"][-1]["tolerance"] == pytest.approx(tol * c if c else tol, rel=1e-15)


@pytest.mark.parametrize("k", [4, 6, 8])
@pytest.mark.parametrize("command", ["decompose", "limit"])
def test_cli_refuses_similar_jordan_block(tmp_path, command, k):
    # rounding splits the Jordan eigenvalue into clusters with sep ~ eps ||A||:
    # a recorded refusal, not idempotents of norm 1e11 or a wrong K
    code, rec = _cli_run(tmp_path, similar_jordan(k), command)
    assert code == 1
    assert [e["type"] for e in rec["errors"]] == ["IllConditioned"]


def test_cli_limit_keeps_close_moduli_of_a_small_matrix(tmp_path):
    # an absolute cluster tolerance once merged the two moduli into one at
    # 0.9975e-4 and exited 0 with that wrong K
    code, rec = _cli_run(tmp_path, 1e-4 * np.diag([1.0, 0.995]))
    assert code == 0
    assert rec["results"]["moduli"] == pytest.approx([9.95e-5, 1e-4], rel=1e-12)


def test_cli_semigroup_records_overflowing_limit(tmp_path):
    # exp(1e4) leaves float range: a recorded refusal, not a NaN limit
    code, rec = _cli_run(tmp_path, 1e4 * np.array([[1.0, 1.0], [0.0, 0.5]]), "semigroup")
    assert code == 1
    assert [(e["type"], e["context"]) for e in rec["errors"]] == [("InvalidInput", "semigroup")]
    assert "float range" in rec["errors"][0]["message"]


# |1.5e308 (1 + i)| = 2.1e308: a modulus past float range though both parts are finite
_PAST_RANGE = 1.5e308 * (1 + 1j)


@pytest.mark.parametrize(
    "a", [np.diag([_PAST_RANGE, _PAST_RANGE]), np.array([[1.5e308, 1e308], [0.0, 1e308]])], ids=["diag", "upper"]
)
def test_cli_limit_records_overflowing_limit(tmp_path, a):
    # a level past float range: a recorded refusal, not moduli ["inf"] and a
    # "nan" K with exit 0, and no warning
    code, rec = _cli_run(tmp_path, a)
    assert code == 1
    assert [(e["type"], e["context"]) for e in rec["errors"]] == [("InvalidInput", "limit")]
    assert "leaves float range" in rec["errors"][0]["message"]


def test_cli_decompose_refuses_overflowing_representative(tmp_path):
    # a representative whose modulus leaves float range: a recorded refusal,
    # not numpy's warnings and "LinAlgError: SVD did not converge"
    code, rec = _cli_run(tmp_path, np.diag([_PAST_RANGE, _PAST_RANGE]), "decompose")
    assert code == 1
    assert [(e["type"], e["context"]) for e in rec["errors"]] == [("InvalidInput", "decompose")]
    assert rec["errors"][0]["message"] == "the spectral norm ||A|| = nan leaves float range"


@pytest.mark.parametrize("command", ["decompose", "limit"])
def test_cli_overflowing_representative_prints_nothing(tmp_path, command):
    # a new process, so no warning filter of the suite hides or raises one
    src, out = tmp_path / "a.json", tmp_path / "rec.json"
    src.write_text(json.dumps(matrix_to_json(np.diag([_PAST_RANGE, _PAST_RANGE]))))
    env = {**os.environ, "PYTHONPATH": str(Path(satk.__file__).parents[1])}
    argv = [sys.executable, "-m", "satk.cli", command, "--input", str(src), "--out", str(out)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (1, "", "")
    assert json.loads(out.read_text())["errors"][0]["type"] == "InvalidInput"


@pytest.mark.parametrize("seed", [1, 2, 3, 5])
def test_cli_limit_passes_dt_like(tmp_path, seed):
    # nearly equal moduli with idempotent norms up to 1e9: F_j stays nested
    code, rec = _cli_run(tmp_path, dt_like(seed, 32))
    assert code == 0, rec["checks"]


def test_cli_limit_dt_like_matches_flag_estimate(tmp_path):
    a = dt_like(2, 32)
    _, rec = _cli_run(tmp_path, a)
    k = np.array([[complex(re, im) for re, im in row] for row in rec["results"]["limit_matrix"]])
    assert linalg.norm2(k - normalized_power(a, 4096)) <= 1e-3


def test_cli_limit_refuses_dt_like_64(tmp_path):
    code, rec = _cli_run(tmp_path, dt_like(0, 64))
    assert code == 1
    assert [e["type"] for e in rec["errors"]] == ["IllConditioned"]


def test_cli_iterate_writes_decreasing_csv(tmp_path):
    src = tmp_path / "a.json"
    src.write_text(FIXTURE_JSON)
    out = tmp_path / "rec.json"
    code = main(
        ["iterate", "--input", str(src), "--out", str(out), "--csv",
         "--config", '{"schedule": [16, 64, 256, 1024, 4096]}']
    )
    assert code == 0
    rows = read_error_csv(tmp_path / "rec.csv")
    errors = [r[1] for r in rows]
    # decreasing until the machine-noise floor takes over
    meaningful = [e for e in errors if e > 1e-9]
    assert meaningful == sorted(meaningful, reverse=True)
    assert errors[-1] <= 1e-3


def test_cli_unknown_command_usage_error():
    assert main(["frobnicate", "--seed", "1"]) == 2


def _fresh_process_main(argv):
    """Exit status of ``satk.cli`` run with argv in a new Python process."""
    env = {**os.environ, "PYTHONPATH": str(Path(satk.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "satk.cli", *argv], env=env).returncode


def test_cli_start_up_loads_no_scipy_linalg(tmp_path):
    # satk takes LAPACK and BLAS from scipy's two compiled modules, semigroup's
    # Pade step included: no command imports the scipy.linalg package (and
    # numpy.f2py with it)
    code = (
        "import json, sys\n"
        "import satk, satk.cli\n"
        "loaded = lambda: sorted({'scipy.linalg', 'numpy.f2py'} & set(sys.modules))\n"
        "status = satk.cli.main(['limit', '--seed', '1', '--out', sys.argv[1]])\n"
        "after_limit = loaded()\n"
        "status_semigroup = satk.cli.main(['semigroup', '--seed', '1', '--out', sys.argv[1]])\n"
        "print(json.dumps([status, after_limit, status_semigroup, loaded()]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(satk.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "rec.json")], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [0, [], 0, []]


def test_cli_parser_reused_after_usage_errors(tmp_path, capsys):
    # main builds its parser once per process; usage errors must leave it as
    # a fresh process would have it
    assert main(["bogus"]) == 2
    assert main(["limit"]) == 2
    out, fresh = tmp_path / "rec.json", tmp_path / "fresh.json"
    assert main(["limit", "--seed", "5", "--out", str(out)]) == 0
    assert _fresh_process_main(["limit", "--seed", "5", "--out", str(fresh)]) == 0
    assert out.read_bytes() == fresh.read_bytes()


def test_clear_memos_empties_every_memo():
    # an iterate run fills the numeric memos of decomp, resolution and powerit
    run_command(RunConfig(command="iterate", seed=1, params={}))
    memos = {f"{m.__module__}.{m.__name__}": m for m in satk_memos()}
    numeric = (
        "satk.decomp.schur_form",
        "satk.decomp.dunford",
        "satk.decomp.ordered_schur",
        "satk.powerit._power_roots",
        "satk.powerit._flag_run",
    )
    assert all(memos[name].cache_info().currsize > 0 for name in numeric)
    clear_memos()
    assert {name: m.cache_info().currsize for name, m in memos.items()} == dict.fromkeys(memos, 0)


def test_cli_decompose_and_limit_share_one_dunford(tmp_path, monkeypatch):
    # limit after decompose on the same file reuses its decomposition: one
    # idempotent per cluster in all, and the record a fresh process writes
    src = tmp_path / "a.json"
    src.write_text(json.dumps(matrix_to_json(np.array([[1, 1, 0], [0, 1, 0.5], [0, 0, 2j]]))))
    calls = []
    spectral_idempotent = decomp.spectral_idempotent
    monkeypatch.setattr(decomp, "spectral_idempotent", lambda *a: calls.append(1) or spectral_idempotent(*a))
    clear_memos()
    out_dec, out, fresh = tmp_path / "dec.json", tmp_path / "lim.json", tmp_path / "fresh.json"
    assert main(["decompose", "--input", str(src), "--out", str(out_dec)]) == 0
    assert main(["limit", "--input", str(src), "--out", str(out)]) == 0
    assert json.loads(out_dec.read_text())["results"]["multiplicities"] == [1, 2]
    assert len(calls) == 2
    assert _fresh_process_main(["limit", "--input", str(src), "--out", str(fresh)]) == 0
    assert out.read_bytes() == fresh.read_bytes()


def test_cli_decompose_and_limit_cut_once_per_cluster_boundary(tmp_path, monkeypatch):
    # three clusters, two of them on one modulus level: decompose makes the
    # one ordered pass, with a ztrsen and a ztrsyl at each of its two cluster
    # boundaries, and limit reads its level projections
    src = tmp_path / "a.json"
    t = np.array([[1, 1, 0, 0], [0, 1, 0.5, 0], [0, 0, 2j, 0.3], [0, 0, 0, -2]])
    src.write_text(json.dumps(matrix_to_json(t)))
    calls = []
    for name in ("ztrsen", "ztrsyl"):
        routine = getattr(decomp.lapack, name)
        monkeypatch.setattr(decomp.lapack, name, lambda *a, r=routine, n=name: calls.append(n) or r(*a))
    clear_memos()
    assert main(["decompose", "--input", str(src), "--out", str(tmp_path / "dec.json")]) == 0
    assert main(["limit", "--input", str(src), "--out", str(tmp_path / "lim.json")]) == 0
    assert json.loads((tmp_path / "dec.json").read_text())["results"]["multiplicities"] == [1, 1, 2]
    assert sorted(calls) == ["ztrsen", "ztrsen", "ztrsyl", "ztrsyl"]


def test_cli_limit_at_the_float_maximum_is_exact_and_quiet(tmp_path):
    # the midpoint of the levels 1e308 and 1.7e308 once overflowed, and the
    # cut above the first was refused; K is exact, and a new process (no
    # warning filter of the suite) prints nothing
    src, out = tmp_path / "a.json", tmp_path / "rec.json"
    src.write_text(json.dumps(matrix_to_json(np.diag([1e308, 1.7e308]))))
    env = {**os.environ, "PYTHONPATH": str(Path(satk.__file__).parents[1])}
    argv = [sys.executable, "-m", "satk.cli", "limit", "--input", str(src), "--out", str(out)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")
    rec = json.loads(out.read_text())
    assert rec["results"]["limit_matrix"] == [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.7e308, 0.0]]]
    for command in ("vector-exponent", "semigroup"):
        _, rec = _cli_run(tmp_path, np.diag([1e308, 1.7e308]), command)
        assert "IllConditioned" not in [e["type"] for e in rec["errors"]]


@pytest.mark.parametrize("command", ["limit", "decompose", "vector-exponent", "semigroup"])
def test_cli_refuses_a_norm_past_float_range(tmp_path, command):
    # |1.5e308 (1 + i)| is past float range though both parts are finite: the
    # Schur form refuses ||A|| by name, where a bare OverflowError was recorded
    code, rec = _cli_run(tmp_path, np.diag([1.5e308 * (1 + 1j), 1.0]), command)
    assert code == 1
    assert [(e["type"], e["context"]) for e in rec["errors"]] == [("InvalidInput", command)]
    assert rec["errors"][0]["message"] == "the spectral norm ||A|| = nan leaves float range"


@pytest.mark.parametrize("command", ["limit", "decompose", "vector-exponent", "semigroup"])
def test_cli_records_no_overflow_of_an_eigenvalue_gap(tmp_path, command):
    # ||A|| is finite but |z - (-z)| is not: the clustering counts the gap as
    # apart instead of raising OverflowError
    z = 0.65e308 * (1 + 1j)
    code, rec = _cli_run(tmp_path, np.diag([z, -z]), command)
    assert code == (0 if command == "limit" else 1)
    assert "OverflowError" not in [e["type"] for e in rec["errors"]]


@pytest.mark.parametrize(
    "z, w", [(0.65e308 * (1 + 1j), -0.65e308 * (1 + 1j)), (1e308, 1e308)], ids=["z-and-minus-z", "1e308"]
)
def test_cli_limit_of_a_level_whose_sum_overflows(tmp_path, z, w):
    # the two moduli sum past float range, but their mean |z| does not:
    # K = |z| I, where the level's mean was refused
    code, rec = _cli_run(tmp_path, np.diag([z, w]), "limit")
    assert (code, rec["errors"]) == (0, [])
    assert rec["results"]["moduli"] == [abs(z)]
    assert rec["results"]["limit_matrix"] == [[[abs(z), 0.0], [0.0, 0.0]], [[0.0, 0.0], [abs(z), 0.0]]]


@pytest.mark.parametrize(
    "a",
    [
        pytest.param(1e200 * np.array([[1.0, 1.0], [0.0, 0.5]]), id="1e200"),
        pytest.param(np.diag([0.65e308 * (1 + 1j), -0.65e308 * (1 + 1j)]), id="z-and-minus-z"),
    ],
)
def test_cli_decompose_prints_nothing_on_an_overflowing_check(tmp_path, a):
    # the commutation and nilpotency products leave float range: their checks
    # fail with the value inf, no error is recorded, and a new process (no
    # warning filter of the suite) prints nothing
    src, out = tmp_path / "a.json", tmp_path / "rec.json"
    src.write_text(json.dumps(matrix_to_json(a)))
    env = {**os.environ, "PYTHONPATH": str(Path(satk.__file__).parents[1])}
    argv = [sys.executable, "-m", "satk.cli", "decompose", "--input", str(src), "--out", str(out)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (1, "", "")
    rec = json.loads(out.read_text())
    assert rec["errors"] == []
    failed = [(c["name"], c["value"]) for c in rec["checks"] if not c["passed"]]
    assert failed == [("commutation", "inf"), ("nilpotency", "inf")]


@pytest.mark.parametrize(
    "argv, needs",
    [
        pytest.param(["decompose"], "'--input' or '--seed'", id="decompose"),
        pytest.param(["sweep", "--config", '{"count": 1}'], "'--seed'", id="sweep"),
    ],
)
def test_cli_missing_source_is_usage_error(tmp_path, capsys, argv, needs):
    out = tmp_path / "rec.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[0]} needs {needs}" in captured.err


def test_cli_parse_error_captured_not_raised(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix array complex general\n2 2\n1.0\n")
    code = main(["limit", "--input", str(bad)])
    rec = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rec["errors"][0]["type"] == "ParseError"


def test_run_command_seeded_commands_pass():
    for cmd in ("decompose", "limit", "yamamoto", "vector-exponent"):
        params = {"n": 512} if cmd in ("yamamoto", "vector-exponent") else {}
        rec = run_command(RunConfig(command=cmd, seed=11, params=params))
        assert rec.passed, (cmd, rec.errors, rec.checks)


@pytest.mark.parametrize(
    "argv, key",
    [
        (["shift", "--seed", "0", "--config", '{"kind": "geometric", "q": 0.9}'], "q"),
        (["limit", "--seed", "5", "--config", '{"n": 512}'], "n"),
        (["sweep", "--seed", "42", "--config", '{"cout": 3}'], "cout"),
        (["limit", "--seed", "3", "--config", '{"instance": {"dimm": 6}}'], "dimm"),
        (["sweep", "--seed", "3", "--config", '{"instance": {"dimm": 6}}'], "dimm"),
        (["shift", "--seed", "0"], "--seed"),
        (["shift", "--input", __file__], "--input"),
        (["sweep", "--seed", "3", "--input", __file__, "--config", '{"count": 1}'], "--input"),
        (["limit", "--input", "no_such_matrix.mtx"], "no_such_matrix.mtx"),
        (["limit", "--seed", "5", "--csv"], "--csv"),
        (["limit", "--seed", "5", "--config", str(Path(__file__).parent)], "--config"),
    ],
)
def test_cli_unknown_config_key_is_usage_error(tmp_path, capsys, argv, key):
    # a misspelled key, a source the command does not read, an --input that
    # names no file, a --config directory or an output the command does not
    # write must not silently run the default
    out = tmp_path / "rec.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, key",
    [
        pytest.param(["--seed", "3"], "--seed", id="seed"),
        pytest.param(["--config", '{"instance": {"dim": 3}}'], "instance", id="instance"),
    ],
)
def test_cli_input_reads_no_seed_and_no_instance(tmp_path, capsys, extra, key):
    # the matrix of --input is the source: a --seed or an instance beside it
    # would be ignored, yet named in the record's config
    src, out = tmp_path / "a.json", tmp_path / "rec.json"
    src.write_text(FIXTURE_JSON)
    assert main(["limit", "--input", str(src), *extra, "--out", str(out)]) == 2
    assert not out.exists()
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("out, number", [("missing/x.json", errno.ENOENT), (".", errno.EISDIR)])
def test_cli_unwritable_out_fails_before_the_run(tmp_path, monkeypatch, capsys, out, number):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_command", lambda config: pytest.fail("the command ran"))
    assert main(["sweep", "--seed", "42", "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: [Errno {number}]")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("config", [{"kind": "triangular"}, {"kind": "explicit"}, {"kind": ["geometric"]}])
def test_cli_bad_weight_kind_is_recorded(tmp_path, config):
    # a list kind once reached a dict lookup in the CLI and recorded a TypeError
    out = tmp_path / "rec.json"
    assert main(["shift", "--config", json.dumps(config), "--out", str(out)]) == 1
    rec = json.loads(out.read_text())
    assert [(e["type"], e["context"]) for e in rec["errors"]] == [("InvalidInput", "shift")]


@pytest.mark.parametrize(
    "config, message",
    [
        ({"kind": "explicit", "values": 5}, "explicit values must be a nonempty list of weights, got 5"),
        ({"kind": "explicit", "values": {"a": 1}}, "explicit values must be a nonempty list of weights, got {'a': 1}"),
        ({"kind": "harmonic", "values": [1]}, "harmonic weights read no 'values'"),
        ({"kind": "harmonic", "ratio": 0.5}, "harmonic weights read no 'ratio'"),
        ({"kind": "geometric", "level": 2.0}, "geometric weights read no 'level'"),
        ({"kind": "constant", "ratio": 0.5}, "constant weights read no 'ratio'"),
    ],
    ids=["values-int", "values-dict", "harmonic-values", "harmonic-ratio", "geometric-level", "constant-ratio"],
)
def test_cli_shift_refuses_weight_parameters_its_kind_does_not_take(tmp_path, config, message):
    # values 5 once recorded a TypeError, a dict was read as its keys, and a
    # parameter the kind does not read was ignored with exit 0
    out = tmp_path / "rec.json"
    assert main(["shift", "--config", json.dumps(config), "--out", str(out)]) == 1
    (error,) = json.loads(out.read_text())["errors"]
    assert (error["type"], error["message"]) == ("InvalidInput", message)


def test_vector_exponent_levels_are_limit_moduli():
    # both commands read one modulus resolution of the matrix: every exact
    # exponent is one of limit's moduli, bit for bit
    exact = run_command(RunConfig(command="vector-exponent", seed=3)).to_dict()["results"]["exact"]
    moduli = run_command(RunConfig(command="limit", seed=3)).to_dict()["results"]["moduli"]
    assert set(exact) <= set(moduli)


@pytest.mark.parametrize("c", [1e-170, 1e300])
def test_cli_vector_exponent_of_a_scaled_vector(tmp_path, capsys, c):
    # ||c x|| underflows at 1e-170 and overflows at 1e300: c x once read as
    # the zero vector (exit 0 with exact 0) or as a vector of level 0.5
    src = tmp_path / "a.json"
    src.write_text('{"dim": 2, "entries": [[1, 0], [1, 0], [0, 0], [0.5, 0]]}')

    def run(scale):
        config = json.dumps({"n": 16, "vectors": [[[scale, 0.0], [scale, 0.0]]]})
        code = main(["vector-exponent", "--input", str(src), "--config", config])
        return code, json.loads(capsys.readouterr().out)["results"]

    code, results = run(c)
    assert (code, results) == run(1.0)
    # exponent 1, which 16 steps read 5% high: a recorded failure
    assert results["exact"] == [1.0]
    assert code == 1


def test_cli_shift_means_after_a_zero_weight(tmp_path):
    out = tmp_path / "rec.json"
    config = json.dumps({"kind": "explicit", "values": [1.0, 0.0] + [0.5] * 400})
    assert main(["shift", "--config", config, "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["checks"][0]["value"] <= 1e-10
    # windows through w_2 stay 0 and the rest are 0.5: no uniform limit
    assert rec["results"]["witness"] == [[3, 193], [1, 193]]


@pytest.mark.parametrize("ratio", [0.05, 0.001])
def test_cli_shift_of_weights_that_reach_subnormals(tmp_path, ratio):
    # q^k is subnormal within 256 weights: the dense orbit once divided by a
    # subnormal norm and recorded a "nan" deviation
    out = tmp_path / "rec.json"
    config = json.dumps({"kind": "geometric", "ratio": ratio})
    assert main(["shift", "--config", config, "--out", str(out)]) == 0
    value = json.loads(out.read_text())["checks"][0]["value"]
    assert isinstance(value, float) and value <= 1e-10


@pytest.mark.parametrize(
    "config, name",
    [
        ({"m": 256.9, "n": 32.5}, "m"),
        ({"n": 32.5}, "n"),
        ({"start_max": 64.5, "length_max": 256.7}, "start_max"),
        ({"length_max": 256.7}, "length_max"),
        ({"m": True}, "m"),
    ],
    ids=["m-and-n", "n", "start_max-and-length_max", "length_max", "bool-m"],
)
def test_cli_shift_refuses_sizes_that_are_no_positive_integer(tmp_path, config, name):
    # int() once ran 256.9 as 256 and exited 0
    out = tmp_path / "rec.json"
    assert main(["shift", "--config", json.dumps(config), "--out", str(out)]) == 1
    (error,) = json.loads(out.read_text())["errors"]
    assert error["type"] == "InvalidInput"
    assert error["message"].startswith(f"{name} must be a positive integer")


@pytest.mark.parametrize(
    "command, config, name",
    [
        (command, {"n": n}, "n")
        for command in ("yamamoto", "vector-exponent")
        for n in (4096.5, True, "64")
    ]
    + [("iterate", {"schedule": [16.5, 64.2]}, "n"), ("sweep", {"count": 2.7}, "count")]
    + [("sweep", {"count": "3"}, "count"), ("sweep", {"n": True}, "n")],
    ids=[
        f"{command}-{kind}" for command in ("yamamoto", "vector-exponent") for kind in ("float", "bool", "str")
    ]
    + ["iterate-floats", "sweep-count", "sweep-count-str", "sweep-n-bool"],
)
def test_cli_refuses_sizes_that_are_no_positive_integer(tmp_path, command, config, name):
    # int() once ran 4096.5 as 4096, True as 1 and "64" as 64, and exited 0
    out = tmp_path / "rec.json"
    assert main([command, "--seed", "1", "--config", json.dumps(config), "--out", str(out)]) == 1
    (error,) = json.loads(out.read_text())["errors"]
    assert error["type"] == "InvalidInput"
    assert error["message"].startswith(f"{name} must be a positive integer")


# (command, name) of every --config parameter whose value must be a real
# number: each float default, and shift's ratio and level
REAL_PARAMETERS = [
    (command, name)
    for command, cmd in cli._DISPATCH.items()
    for name, p in cli._signature(cmd).parameters.items()
    if type(p.default) is float
] + [("shift", "ratio"), ("shift", "level")]
# the weight kind that reads each of shift's weight parameters
WEIGHT_KINDS = {"ratio": "geometric", "level": "constant"}


@pytest.mark.parametrize("value", [True, "1"], ids=["bool", "str"])
@pytest.mark.parametrize("command, name", REAL_PARAMETERS, ids=[f"{c}-{n}" for c, n in REAL_PARAMETERS])
def test_cli_refuses_real_parameters_that_are_no_number(tmp_path, command, name, value):
    # float() once read "0.5" as 0.5, and a tolerance of true as 1.0, and exited 0
    out = tmp_path / "rec.json"
    source = [] if command == "shift" else ["--seed", "1"]
    config = {"kind": WEIGHT_KINDS[name], name: value} if name in WEIGHT_KINDS else {name: value}
    assert main([command, *source, "--config", json.dumps(config), "--out", str(out)]) == 1
    (error,) = json.loads(out.read_text())["errors"]
    assert error["type"] == "InvalidInput"
    assert error["message"] == f"{name} must be a real number, got {value!r}"


@pytest.mark.parametrize("bad", ["1", True], ids=["str", "bool"])
def test_cli_shift_refuses_explicit_weights_that_are_no_number(tmp_path, bad):
    # np.array(values, dtype=float) once read "1" and true as weights
    out = tmp_path / "rec.json"
    config = json.dumps({"kind": "explicit", "values": [1.0, bad] + [0.5] * 400})
    assert main(["shift", "--config", config, "--out", str(out)]) == 1
    (error,) = json.loads(out.read_text())["errors"]
    assert error["type"] == "InvalidInput"
    assert error["message"] == f"values[1] must be a real number, got {bad!r}"


@pytest.mark.parametrize("bad", [[True, 0], [1, "0"], [1], 1.0], ids=["bool", "str", "short", "number"])
def test_cli_vector_exponent_refuses_vectors_that_are_no_pairs(tmp_path, bad):
    # complex(re, im) once read [true, 0] as 1
    src, out = tmp_path / "a.json", tmp_path / "rec.json"
    src.write_text(FIXTURE_JSON)
    config = json.dumps({"n": 16, "vectors": [[[1, 0], [0, 0]], [[0, 0], bad]]})
    assert main(["vector-exponent", "--input", str(src), "--config", config, "--out", str(out)]) == 1
    (error,) = json.loads(out.read_text())["errors"]
    assert (error["type"], error["message"]) == ("ParseError", "vectors[1] entry 1 is not a [re, im] pair")


@pytest.mark.parametrize(
    "vectors", [[], [[[1, 0], [0, 0]], [[1, 0]]], 5, [5]], ids=["empty", "ragged", "number", "number-vector"]
)
def test_cli_vector_exponent_refuses_vectors_that_are_no_list_of_vectors(tmp_path, vectors):
    # these once recorded numpy's IndexError, ValueError or a TypeError
    src, out = tmp_path / "a.json", tmp_path / "rec.json"
    src.write_text(FIXTURE_JSON)
    config = json.dumps({"n": 16, "vectors": vectors})
    assert main(["vector-exponent", "--input", str(src), "--config", config, "--out", str(out)]) == 1
    (error,) = json.loads(out.read_text())["errors"]
    assert error["type"] == "InvalidInput"
    assert error["message"].startswith("vectors must be a nonempty list of equal-length")


@pytest.mark.parametrize(
    "command, eigenvalue, message",
    [
        ("vector-exponent", _PAST_RANGE, "the spectral norm ||A|| = nan leaves float range"),
        ("semigroup", 1e308, "exp of the top real part 1e+308 leaves float range"),
    ],
    ids=["modulus", "real-part"],
)
def test_cli_refuses_vector_level_past_float_range(tmp_path, command, eigenvalue, message):
    # the level |z| of vector-exponent, or the rate exp(Re z) of semigroup,
    # leaves float range: vector-exponent once recorded exact ["inf", "inf"]
    # rather than a refusal; now it is refused, with no warning
    code, rec = _cli_run(tmp_path, np.diag([eigenvalue, eigenvalue]), command)
    assert code == 1
    assert [(e["type"], e["context"]) for e in rec["errors"]] == [("InvalidInput", command)]
    assert rec["errors"][0]["message"] == message


def test_cli_vector_exponent_of_a_subnormal_level(tmp_path, capsys):
    # numpy's complex division by a subnormal norm once read "nan" here
    src = tmp_path / "a.json"
    src.write_text('{"dim": 2, "entries": [[0.5, 0], [0, 0], [0, 0], [5e-320, 0]]}')
    assert main(["vector-exponent", "--input", str(src), "--config", '{"n": 16}']) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["estimates"] == results["exact"] == [0.5, 5e-320]


def test_cli_inline_config_longer_than_a_file_name(capsys):
    # past 255 bytes the text is no legal file name: it must still read as JSON
    vectors = [[[float(i == j), 0.0] for i in range(4)] for j in range(4)]
    vectors += [[[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]] * 4]
    text = json.dumps({"vectors": vectors})
    assert len(text) > 255
    code = main(["vector-exponent", "--seed", "3", "--config", text])
    rec = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rec["config"]["params"]["vectors"] == vectors
    assert len(rec["results"]["estimates"]) == len(vectors)


def test_record_numbers_roundtrip():
    rec = run_command(RunConfig(command="yamamoto", seed=3, params={"n": 256}))
    text = rec.to_json()
    reloaded = json.loads(text)
    for got, orig in zip(reloaded["checks"], rec.checks):
        assert got["value"] == orig.value  # exact float round-trip
    assert json.dumps(reloaded, sort_keys=True, separators=(",", ":")) + "\n" == text


def test_record_bytes_do_not_depend_on_out_path(tmp_path):
    first, second, third = tmp_path / "x1.json", tmp_path / "sub" / "x2.json", tmp_path / "x3.json"
    second.parent.mkdir()
    argv = ["iterate", "--seed", "5", "--config", '{"schedule": [64, 4096]}']
    assert main([*argv, "--out", str(first)]) == 0
    assert main([*argv, "--out", str(second)]) == 0
    # --csv is an output option like --out: it is not recorded
    assert main([*argv, "--out", str(third), "--csv"]) == 0
    assert first.read_bytes() == second.read_bytes() == third.read_bytes()


def _csv_bytes(record_path):
    """The n,error,log_error table of an iterate record as csv.writer spells it."""
    rec = json.loads(record_path.read_text())
    rows = [f"{n},{e!r},{math.log(e) if e > 0 else -math.inf!r}\r\n"
            for n, e in zip(rec["results"]["schedule"], rec["results"]["errors"])]
    return ("n,error,log_error\r\n" + "".join(rows)).encode()


@pytest.mark.parametrize("case", ["shorter", "symlink", "dev-null", "csv", "no-dir", "directory"])
def test_out_is_replaced_in_place(tmp_path, capsys, case):
    # --out keeps its inode: a longer old file is cut at the new end, a
    # symlink is written through, a device is written as a stream, and a
    # path that cannot be opened is an error (exit 2), not a traceback
    argv = ["iterate", "--seed", "5", "--config", '{"schedule": [16, 256, 4096]}']
    if case == "csv":
        argv.append("--csv")
    fresh, out = tmp_path / "fresh.json", tmp_path / "rec.json"
    assert main([*argv, "--out", str(fresh)]) == 0
    target = tmp_path / "target.json" if case == "symlink" else out
    target.write_bytes(b"x" * 100_000)
    inode = target.stat().st_ino
    out.with_suffix(".csv").write_bytes(b"y" * 100_000)
    if case == "symlink":
        out.symlink_to(target)
    special = {"dev-null": Path(os.devnull), "no-dir": tmp_path / "no" / "rec.json", "directory": tmp_path}
    out = special.get(case, out)
    code = main([*argv, "--out", str(out)])
    if case in ("no-dir", "directory"):
        assert code == 2
        number = errno.ENOENT if case == "no-dir" else errno.EISDIR
        assert capsys.readouterr().err.startswith(f"error: [Errno {number}]")
        return
    assert code == 0
    if case != "dev-null":
        assert target.read_bytes() == fresh.read_bytes()
        assert target.stat().st_ino == inode
    if case == "symlink":
        assert out.is_symlink() and out.resolve() == target
    if case == "csv":
        written = out.with_suffix(".csv").read_bytes()
        assert written == fresh.with_suffix(".csv").read_bytes() == _csv_bytes(fresh)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "command, params, spec",
    [
        ("decompose", {}, {}),
        ("limit", {}, {}),
        ("iterate", {}, {}),
        ("yamamoto", {"n": 512}, {}),
        ("vector-exponent", {}, {}),
        ("semigroup", {}, {"min_real_gap": 0.2}),
    ],
)
def test_seeded_record_is_the_record_of_its_matrix_file(tmp_path, command, params, spec, seed):
    # --seed only chooses how A is made: satk decomposes it as it would a file
    clear_memos()
    seeded = run_command(RunConfig(command=command, seed=seed, params={**params, "instance": spec}))
    src = tmp_path / "a.json"
    src.write_text(json.dumps(matrix_to_json(generate_instance(seed, InstanceSpec(**spec)).matrix)))
    clear_memos()
    from_file = run_command(RunConfig(command=command, input_path=str(src), params=params))
    for key in ("checks", "results", "errors"):
        assert seeded.to_dict()[key] == from_file.to_dict()[key], key


def test_one_version_string():
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1)
    assert version == satk.__version__ == ARTIFACT_VERSION


@pytest.mark.parametrize(
    "config, number",
    [
        ('{"tol": NaN}', "NaN"),
        ('{"tol": Infinity}', "Infinity"),
        ('{"tol": -Infinity}', "-Infinity"),
        ('{"tol": 1e400}', "1e400"),
        ('{"instance": {"min_real_gap": -1e400}}', "-1e400"),
    ],
)
def test_cli_non_finite_config_is_usage_error(tmp_path, capsys, config, number):
    # json.loads reads all five as floats; a record must stay strict JSON and
    # an infinite tolerance would make a check that cannot fail
    out = tmp_path / "rec.json"
    assert main(["limit", "--seed", "1", "--config", config, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: '--config' holds the non-finite number {number}\n"


@pytest.mark.parametrize(
    "value, written",
    [
        (np.float64("nan"), "nan"),
        (np.float32("-inf"), "-inf"),
        (complex(math.inf, 1.0), ["inf", 1.0]),
        (np.complex128(complex(0.0, math.nan)), [0.0, "nan"]),
        (np.array([[math.inf + 0j]]), [[["inf", 0.0]]]),
    ],
)
def test_record_spells_non_finite_results_as_strings(value, written):
    # a numpy scalar or a complex part must not reach the writer as a bare
    # NaN or Infinity, which no strict JSON reader accepts
    rec = records.RunRecord(RunConfig(command="limit"), results={"x": value})
    assert json.loads(rec.to_json(), parse_constant=pytest.fail)["results"]["x"] == written


def _matrix_market(a, layout):
    rows = [f"%%MatrixMarket matrix {layout} complex general", "% written by the test"]
    m, z = a.shape[0], a.tolist()
    if layout == "array":  # column-major, one entry per line
        rows.append(f"{m} {m}")
        rows += [f"{z[i][j].real!r} {z[i][j].imag!r}" for j in range(m) for i in range(m)]
    else:
        # an entry left out reads as +0, so a signed zero is written out
        cells = [(i, j) for i in range(m) for j in range(m) if a[i, j].tobytes() != bytes(16)]
        rows.append(f"{m} {m} {len(cells)}")
        rows += [f"{i + 1} {j + 1} {z[i][j].real!r} {z[i][j].imag!r}" for i, j in cells]
    return "\n".join(rows) + "\n"


_ENTRIES = st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e300)
_MATRICES = st.integers(1, 4).flatmap(
    lambda m: st.lists(_ENTRIES | st.just(0j), min_size=m * m, max_size=m * m).map(
        lambda v: np.array(v, dtype=np.complex128).reshape(m, m)
    )
)
_BODIES = st.one_of(
    _MATRICES.map(lambda a: json.dumps(matrix_to_json(a))),
    _MATRICES.map(lambda a: _matrix_market(a, "array")),
    _MATRICES.map(lambda a: _matrix_market(a, "coordinate")),
)


def _outcome(parse, text):
    """The bytes of the matrix read, or the type, message and line of the refusal."""
    try:
        return parse(text).tobytes()
    except (ParseError, InvalidInput) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def _parse_or_refuse(text):
    """parse_matrix may refuse a text only with ParseError or InvalidInput, and
    reads it as the entry-by-entry reader does: the same bytes, or the same
    refusal on the same line."""
    assert _outcome(parse_matrix, text) == _outcome(parse_matrix_per_entry, text)


@settings(max_examples=50, deadline=None)
@given(_MATRICES, st.sampled_from(["json", "array", "coordinate"]))
def test_parse_matrix_roundtrips_valid_bodies(a, form):
    text = json.dumps(matrix_to_json(a)) if form == "json" else _matrix_market(a, form)
    assert parse_matrix(text).tobytes() == a.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_parse_matrix_fuzz_arbitrary_text(text):
    _parse_or_refuse(text)


_JSON_VALUES = st.sampled_from([10**400, -(10**309), 0, -1, True, None, "1", math.nan, math.inf, [], {}]) | (
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    )
)


@settings(max_examples=100, deadline=None)
@given(_MATRICES, st.data())
def test_parse_matrix_fuzz_near_valid_json(a, data):
    # one field or one entry of a valid body replaced by any JSON value
    obj = matrix_to_json(a)
    path = data.draw(st.sampled_from(["dim", "entries", "entry", "part", "extra"]))
    value = data.draw(_JSON_VALUES)
    if path in ("dim", "entries"):
        obj[path] = value
    elif path == "extra":
        obj[data.draw(st.text(max_size=4))] = value
    else:
        idx = data.draw(st.integers(0, len(obj["entries"]) - 1))
        if path == "entry":
            obj["entries"][idx] = value
        else:
            obj["entries"][idx][data.draw(st.integers(0, 1))] = value
    _parse_or_refuse(json.dumps(obj))


@settings(max_examples=100, deadline=None)
@given(_BODIES, st.data())
def test_parse_matrix_fuzz_near_valid_bodies(text, data):
    # a valid body with one cut, one token replaced, or one line dropped or repeated
    edit = data.draw(st.sampled_from(["cut", "token", "drop", "repeat"]))
    if edit == "cut":
        text = text[: data.draw(st.integers(0, len(text)))]
    else:
        lines = text.split("\n")
        i = data.draw(st.integers(0, len(lines) - 1))
        if edit == "token":
            toks = lines[i].split(" ")
            toks[data.draw(st.integers(0, len(toks) - 1))] = data.draw(
                st.text(max_size=6) | st.sampled_from(["-1", "0", "99", "nan", "inf", "1e999", "1.5"])
            )
            lines[i] = " ".join(toks)
        elif edit == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
        text = "\n".join(lines)
    _parse_or_refuse(text)


# Number spellings that float() reads as finite numbers: signed zeros,
# subnormals, integers (some past 2**64), exponents; Matrix Market also takes
# digit separators, a plus sign, bare points and other digits.
_JSON_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.6E}"),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["-0", "-0.0", "0e0", "-0E-0", "5e-324", "-4.9e-324", "2.2250738585072011e-308"]),
)
_MM_NUMBERS = _JSON_NUMBERS | st.sampled_from(["1_0", "-1_000.5", "+3", ".5", "5.", "\u0663", "\u0661_\u0660"])
_MM_INDEX = st.sampled_from(["{}", "+{}", "0{}", "\u0660{}"])
# One token of a body may be spoiled: a number past float range, one that is
# no number, a token taken away ("") or one added ("7 7").
_JSON_SPOILS = st.sampled_from(["1e999", str(10**400)])
_MM_SPOILS = _JSON_SPOILS | st.sampled_from(["infinity", "-nan", "0x10", "1__0", "1.0.0", "", "7 7"])
_INDEX_SPOILS = st.sampled_from(["0", "-1", "5", "1.0", "1e0", ""])  # m <= 4


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.sampled_from(["json", "array", "coordinate"]), st.data())
def test_parse_matrix_matches_the_per_entry_reader(m, form, data):
    # every entry to the bit, of a repeated coordinate the last one, and any
    # refusal with its type, message and line
    numbers = _JSON_NUMBERS if form == "json" else _MM_NUMBERS
    field = "complex" if form == "json" else data.draw(st.sampled_from(["complex", "real", "integer"]))
    width = 2 if field == "complex" else 1
    count = m * m if form != "coordinate" else data.draw(st.integers(0, 2 * m * m))
    index = st.builds(str.format, _MM_INDEX, st.integers(1, m))
    rows = [
        ([data.draw(index), data.draw(index)] if form == "coordinate" else [])
        + data.draw(st.lists(numbers, min_size=width, max_size=width))
        for _ in range(count)
    ]
    if rows and data.draw(st.booleans()):
        row = data.draw(st.sampled_from(rows))
        k = data.draw(st.integers(0, len(row) - 1))
        spoils = _JSON_SPOILS if form == "json" else _INDEX_SPOILS if form == "coordinate" and k < 2 else _MM_SPOILS
        row[k] = data.draw(spoils)
    if form == "json":
        text = f'{{"dim": {m}, "entries": [{", ".join(f"[{re}, {im}]" for re, im in rows)}]}}'
    else:
        size = f"{m} {m}" if form == "array" else f"{m} {m} {count}"
        lines = [f"%%MatrixMarket matrix {form} {field} general", size, *(" ".join(row) for row in rows)]
        text = "\n".join(lines) + "\n"
    _parse_or_refuse(text)


def test_parse_matrix_coordinate_keeps_the_last_repeated_entry():
    text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 2 5\n2 1 -0.0\n1 2 7\n"
    a = parse_matrix(text)
    assert a.tobytes() == np.array([[0, 7], [-0.0, 0]], dtype=np.complex128).tobytes()


_RECORD_DTYPES = [np.float64, np.float32, np.float16, np.complex128, np.complex64, np.int64, np.int8, np.uint32, np.bool_]
_VIEWS = {
    "itself": lambda x: x,
    "transposed": lambda x: x.T,
    "reversed": lambda x: x[::-1] if x.ndim else x,
    "strided": lambda x: x[..., ::2] if x.ndim else x,
}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_RECORD_DTYPES).flatmap(
        lambda dt: hnp.arrays(dt, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
    ),
    st.sampled_from(sorted(_VIEWS)),
)
def test_record_bytes_match_the_per_entry_converter(arr, view):
    # signed zeros, subnormals, inf and nan included: the whole-array
    # conversion writes the bytes the entry-by-entry one writes
    arr = _VIEWS[view](arr)
    rec = records.RunRecord(RunConfig(command="limit"), results={"x": arr, "nested": (arr, [arr, 1.5])})
    rec.add_check("c", 0.5, 1.0)
    with mock.patch.object(records, "_jsonable", jsonable):
        want = rec.to_json()
    assert rec.to_json() == want
