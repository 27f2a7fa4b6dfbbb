import json
import re
from pathlib import Path

import numpy as np
import pytest

import satk
from satk import linalg
from satk.cli import main, run_command
from satk.errors import InvalidInput, ParseError
from satk.mmio import matrix_to_json, parse_matrix
from satk.powerit import normalized_power
from satk.records import ARTIFACT_VERSION, RunConfig, read_error_csv, write_error_csv

from conftest import similar_jordan

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


def _dt_like(seed, m, s=1 / np.sqrt(2)):
    """Q T Q*: T with eigenvalues uniform in the unit disc and a strictly upper
    complex Gaussian part scaled by s, Q a random unitary."""
    rng = np.random.default_rng(seed)
    eigs = np.sqrt(rng.uniform(size=m)) * np.exp(2j * np.pi * rng.uniform(size=m))
    g = rng.standard_normal((2, m, m))
    t = np.diag(eigs) + s * np.triu(g[0] + 1j * g[1], 1) / np.sqrt(2)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return q @ t @ q.conj().T


@pytest.mark.parametrize("k", [4, 6, 8])
@pytest.mark.parametrize("command", ["decompose", "limit"])
def test_cli_refuses_similar_jordan_block(tmp_path, command, k):
    # rounding splits the Jordan eigenvalue into clusters with sep ~ eps ||A||:
    # a recorded refusal, not idempotents of norm 1e11 or a wrong K
    code, rec = _cli_run(tmp_path, similar_jordan(k), command)
    assert code == 1
    assert [e["type"] for e in rec["errors"]] == ["IllConditioned"]


@pytest.mark.parametrize("seed", [1, 2, 3, 5])
def test_cli_limit_passes_dt_like(tmp_path, seed):
    # nearly equal moduli with idempotent norms up to 1e9: F_j stays nested
    code, rec = _cli_run(tmp_path, _dt_like(seed, 32))
    assert code == 0, rec["checks"]


def test_cli_limit_dt_like_matches_flag_estimate(tmp_path):
    a = _dt_like(2, 32)
    _, rec = _cli_run(tmp_path, a)
    k = np.array([[complex(re, im) for re, im in row] for row in rec["results"]["limit_matrix"]])
    assert linalg.norm2(k - normalized_power(a, 4096)) <= 1e-3


def test_cli_limit_refuses_dt_like_64(tmp_path):
    code, rec = _cli_run(tmp_path, _dt_like(0, 64))
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
    ],
)
def test_cli_unknown_config_key_is_usage_error(tmp_path, capsys, argv, key):
    # a misspelled key, a source the command does not read or an --input that
    # names no file must not silently run the default
    out = tmp_path / "rec.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert repr(key) in capsys.readouterr().err


def test_cli_shift_means_after_a_zero_weight(tmp_path):
    out = tmp_path / "rec.json"
    config = json.dumps({"kind": "explicit", "values": [1.0, 0.0] + [0.5] * 400})
    assert main(["shift", "--config", config, "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["checks"][0]["value"] <= 1e-10
    # windows through w_2 stay 0 and the rest are 0.5: no uniform limit
    assert rec["results"]["witness"] == [[3, 193], [1, 193]]


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
    assert json.dumps(reloaded, sort_keys=True, separators=(",", ": "), indent=1) + "\n" == text


def test_record_bytes_do_not_depend_on_out_path(tmp_path):
    first, second = tmp_path / "x1.json", tmp_path / "sub" / "x2.json"
    second.parent.mkdir()
    assert main(["limit", "--seed", "5", "--out", str(first)]) == 0
    assert main(["limit", "--seed", "5", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_one_version_string():
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1)
    assert version == satk.__version__ == ARTIFACT_VERSION
