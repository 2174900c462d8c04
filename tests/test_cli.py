import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import superosc
from superosc import (
    ModelParams,
    analytic_U,
    analytic_V,
    fourier_analytic,
    fourier_spectral,
    hamiltonian_matrix,
    momentum_wavefunction,
    paraboson_limit_table,
    position_spectrum,
)
from superosc import cli, fourier, specfun, wavefunctions
from superosc.cli import _floats, _fmt, _fmt_array, _fmt_seq, _json, main


# The directory that holds the package, for a child process's PYTHONPATH.
_SRC = os.path.dirname(os.path.dirname(superosc.__file__))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_blocks(text):
    return [block.splitlines() for block in text.strip().split("\n\n")]


def test_spectrum_position_column(capsys):
    code, out, _ = run(capsys, "spectrum", "--j", "3", "--observable", "q")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# j=3 observable=q"
    assert lines[1] == "value"
    values = [float(v) for v in lines[2:]]
    expected = [-math.sqrt(3), -math.sqrt(2), -1, 0, 1, math.sqrt(2), math.sqrt(3)]
    assert values == pytest.approx(expected, rel=1e-15)


def test_spectrum_hamiltonian_j0(capsys):
    code, out, _ = run(capsys, "spectrum", "--j", "0", "--observable", "H")
    assert code == 0
    assert out.strip().splitlines()[-1] == "0.5"


def test_momentum_spectrum_equals_position(capsys):
    _, out_q, _ = run(capsys, "spectrum", "--j", "10", "--observable", "q")
    _, out_p, _ = run(capsys, "spectrum", "--j", "10", "--observable", "p")
    assert out_q.splitlines()[1:] == out_p.splitlines()[1:]


def test_wavefunction_tables_shape(capsys):
    code, out, _ = run(capsys, "wavefunction", "--j", "10", "--p", "0.5",
                       "--n", "0,1,2,3")
    assert code == 0
    blocks = csv_blocks(out)
    assert len(blocks) == 4
    for i, block in enumerate(blocks):
        assert block[0] == f"# j=10 p=0.5 n={i} kind=position energy={i}.5"
        assert block[1] == "grid,amplitude_re"
        assert len(block) == 2 + 21


def test_odd_level_vanishes_at_grid_zero(capsys):
    _, out, _ = run(capsys, "wavefunction", "--j", "10", "--p", "0.5", "--n", "1")
    rows = dict(line.split(",") for line in csv_blocks(out)[0][2:])
    assert float(rows["0"]) == 0.0


def test_wavefunction_json_round_trip(capsys):
    code, out, _ = run(capsys, "wavefunction", "--j", "4", "--p", "0.3",
                       "--n", "0,2", "--format", "json")
    assert code == 0
    tables = json.loads(out)
    assert [t["n"] for t in tables] == [0, 2]
    for t in tables:
        assert t["j"] == 4 and t["p"] == 0.3 and t["kind"] == "position"
        assert t["energy"] == t["n"] + 0.5
        assert len(t["grid"]) == len(t["amplitude"]) == 9
        norm = sum(a * a for a in t["amplitude"])
        assert norm == pytest.approx(1.0, abs=1e-12)


def test_momentum_wavefunction_json_pairs(capsys):
    _, out, _ = run(capsys, "wavefunction", "--j", "2", "--p", "0.5",
                    "--n", "0", "--kind", "momentum", "--format", "json")
    table = json.loads(out)[0]
    assert all(len(pair) == 2 for pair in table["amplitude"])
    norm = sum(re * re + im * im for re, im in table["amplitude"])
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_fourier_json_matches_library(capsys):
    code, out, _ = run(capsys, "fourier", "--j", "3", "--p", "0.5",
                       "--method", "analytic", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    got = np.array([[complex(re, im) for re, im in row] for row in payload["matrix"]])
    # 17 significant digits round-trip exactly
    assert np.array_equal(got, np.asarray(fourier_analytic(ModelParams(j=3, p=0.5))))


def test_fourier_doubled_j3_half(capsys):
    _, out, _ = run(capsys, "fourier", "--j", "3", "--p", "0.5", "--format", "json")
    payload = json.loads(out)
    got = 2 * np.array([[complex(re, im) for re, im in row] for row in payload["matrix"]])
    s2 = math.sqrt(2.0)
    expected = np.array([
        [0, 0, 1, -1j * s2, -1, 0, 0],
        [0, 1, -1j, 0, -1j, -1, 0],
        [1, -1j, 0, 0, 0, -1j, -1],
        [-1j * s2, 0, 0, 0, 0, 0, -1j * s2],
        [-1, -1j, 0, 0, 0, -1j, 1],
        [0, -1, -1j, 0, -1j, 1, 0],
        [0, 0, -1, -1j * s2, 1, 0, 0],
    ])
    assert np.abs(got - expected).max() <= 1e-12


def test_fourier_routes_agree(capsys):
    _, out_a, _ = run(capsys, "fourier", "--j", "4", "--p", "0.3",
                      "--method", "analytic", "--format", "json")
    _, out_s, _ = run(capsys, "fourier", "--j", "4", "--p", "0.3",
                      "--method", "spectral", "--format", "json")
    to_mat = lambda text: np.array(
        [[complex(re, im) for re, im in row] for row in json.loads(text)["matrix"]]
    )
    assert np.abs(to_mat(out_a) - to_mat(out_s)).max() <= 1e-10


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--j-max", "4", "--p-list", "0.3,0.7")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("PASS  overall:")


def test_verify_spec_invocation_passes(capsys):
    code, out, _ = run(capsys, "verify", "--j-max", "20", "--p-list", "0.1,0.5,0.9")
    assert code == 0
    assert ", 0 failed" in out.strip().splitlines()[-1]


def test_verify_env_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("SUPEROSC_TOL", "1e-20")
    code, out, _ = run(capsys, "verify", "--j-max", "2", "--p-list", "0.5")
    assert code == 1
    assert "FAIL" in out


def test_verify_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("SUPEROSC_TOL", "1e-20")
    code, _, _ = run(capsys, "verify", "--j-max", "2", "--p-list", "0.5",
                     "--tol", "1e-10")
    assert code == 0


# One CSV line of verify: status, name, residual and tolerance.
_VERIFY_LINE = re.compile(r"(PASS|FAIL)  (.+): residual=(\S+) tol=(\S+)")


@pytest.mark.parametrize("argv, code", [
    (("--j-max", "2", "--p-list", "0.3"), 0),
    (("--j-max", "1", "--p-list", "0.3", "--tol", "1e-300"), 1),
])
def test_verify_json_matches_csv(capsys, argv, code):
    csv_code, csv_text, _ = run(capsys, "verify", *argv)
    json_code, json_text, _ = run(capsys, "verify", *argv, "--format", "json")
    assert csv_code == json_code == code
    payload = json.loads(json_text)
    checks, lines = payload["checks"], csv_text.splitlines()
    assert len(checks) == len(lines) - 1
    for check, line in zip(checks, lines):
        status, name, residual, tol = _VERIFY_LINE.fullmatch(line).groups()
        assert check["name"] == name
        assert check["passed"] is (status == "PASS")
        assert f"{check['residual']:.3e}" == residual
        assert f"{check['tolerance']:.1e}" == tol
    failed = sum(not check["passed"] for check in checks)
    assert payload["passed"] is (code == 0)
    assert (failed == 0) is (code == 0)
    verdict = "PASS" if code == 0 else "FAIL"
    assert lines[-1] == f"{verdict}  overall: {len(checks)} checks, {failed} failed"


def test_limits_table(capsys):
    code, out, _ = run(capsys, "limits", "--j", "20", "--p", "0.5",
                       "--alpha", "1e6", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# j=20 p=0.5 alpha=1000000 n=2"
    assert lines[1] == "x,discrete,continuum,limit_gap"
    assert len(lines) == 2 + 15
    gaps = [float(line.split(",")[3]) for line in lines[2:]]
    assert max(gaps) <= 1e-4


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run(capsys, "wavefunction", "--j", "2", "--p", "0.5",
                       "--n", "0", "--format", "json", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[0]["j"] == 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ("spectrum", "--j", "4", "--observable", "p"),
    ("wavefunction", "--j", "3", "--p", "0.3", "--n", "0,1,5", "--kind", "momentum"),
    ("fourier", "--j", "3", "--p", "0.3"),
    ("verify", "--j-max", "2", "--p-list", "0.5"),
    ("limits", "--j", "6", "--p", "0.5", "--alpha", "10", "--n", "1"),
])
def test_output_file_holds_the_stdout_bytes(tmp_path, capsys, argv, fmt):
    target = tmp_path / "out.txt"
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "") and out.endswith("\n") and not out.endswith("\n\n")
    assert run(capsys, *argv, "--format", fmt, "--output", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode()


def test_failing_verify_writes_its_full_report(tmp_path, capsys):
    target = tmp_path / "report.txt"
    _, passing, _ = run(capsys, "verify", "--j-max", "1")
    code, out, _ = run(capsys, "verify", "--j-max", "1", "--tol", "1e-300")
    assert code == 1
    assert run(capsys, "verify", "--j-max", "1", "--tol", "1e-300",
               "--output", str(target)) == (1, "", "")
    assert target.read_bytes() == out.encode()
    names = [line.split(":")[0][6:] for line in out.splitlines()]
    assert names == [line.split(":")[0][6:] for line in passing.splitlines()]
    assert out.endswith(" failed\n") and out.splitlines()[-1].startswith("FAIL  overall:")


@pytest.mark.parametrize("argv,expected", [
    (("spectrum", "--j", "3", "--frmt", "csv"), 2),
    (("fourier", "--j", "3", "--p", "1.5"), 3),
])
def test_failed_call_writes_nothing(tmp_path, capsys, argv, expected):
    target = tmp_path / "out.txt"
    assert run(capsys, *argv)[:2] == (expected, "")
    assert run(capsys, *argv, "--output", str(target))[:2] == (expected, "")
    assert not target.exists()


@pytest.mark.parametrize("target", ["", "missing/out.txt"],
                         ids=["directory", "missing-directory"])
def test_unwritable_output_exits_3(tmp_path, capsys, target):
    code, out, err = run(capsys, "spectrum", "--j", "2", "--output", str(tmp_path / target))
    assert (code, out) == (3, "") and err.startswith("error: ") and err.count("\n") == 1


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "fourier", "--j", "5", "--p", "0.37", "--format", "csv")
    _, second, _ = run(capsys, "fourier", "--j", "5", "--p", "0.37", "--format", "csv")
    assert first == second


def test_usage_errors_exit_2(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys, "spectrum")[0] == 2
    assert run(capsys, "spectrum", "--j", "3", "--frmt", "csv")[0] == 2
    assert run(capsys, "wavefunction", "--j", "2", "--p", "0.5", "--n", "a,b")[0] == 2


@pytest.mark.parametrize("argv", [
    ("fourier", "--j", "2", "--p", "0.5"),
    ("spectrum", "--j", "2"),
    ("wavefunction", "--j", "2", "--p", "0.5"),
    ("limits", "--j", "2", "--p", "0.5", "--alpha", "10"),
])
def test_tol_is_a_verify_only_flag(capsys, argv):
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv, "--tol", "1e-3")[0] == 2


def test_level_out_of_range_exits_3_with_one_error_line(capsys):
    code, out, err = run(capsys, "wavefunction", "--j", "3", "--p", "0.3", "--n", "7")
    assert (code, out) == (3, "")
    assert err.splitlines() == ["error: need n <= 6, got n=7"]


def test_domain_errors_exit_3(capsys):
    code, _, err = run(capsys, "wavefunction", "--j", "2", "--p", "0.5", "--n", "9")
    assert code == 3 and "error:" in err
    assert run(capsys, "wavefunction", "--j", "2", "--p", "1.5", "--n", "0")[0] == 3
    assert run(capsys, "spectrum", "--j", "-1")[0] == 3
    assert run(capsys, "limits", "--j", "0", "--p", "0.5", "--alpha", "10")[0] == 3


# Each command at the first j whose estimated peak is over the limit.
_FIRST_REFUSED = [
    ("fourier", "--j", "2047", "--p", "0.3"),
    ("verify", "--j-max", "1180"),
    ("limits", "--j", "3726449", "--p", "0.3", "--alpha", "10"),
    ("wavefunction", "--j", "8185", "--p", "0.3"),
    ("spectrum", "--j", "8384512"),
]


@pytest.mark.parametrize("argv", [
    ("fourier", "--j", "1000000000", "--p", "0.3"),
    ("wavefunction", "--j", "1000000000", "--p", "0.3"),
    ("verify", "--j-max", "1000000000"),
    ("limits", "--j", "1000000000", "--p", "0.3", "--alpha", "10"),
    ("limits", "--j", "8388608", "--p", "0.3", "--alpha", "10"),
    ("wavefunction", "--j", "16384", "--p", "0.3"),
    ("spectrum", "--j", "8388608", "--observable", "H"),
    # The first j over each command's estimated peak.
    *_FIRST_REFUSED,
])
def test_dense_size_cap_exits_3_without_allocating(capsys, argv):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and out == "" and err.startswith("error:")
    assert peak < 2**20


def _args(argv):
    return cli._build_parser().parse_args(list(argv))


@pytest.mark.parametrize("argv", _FIRST_REFUSED)
def test_peak_cap_admits_the_j_below_the_first_refused(argv):
    flag = argv.index("--j-max" if argv[0] == "verify" else "--j") + 1
    below = argv[:flag] + (str(int(argv[flag]) - 1),) + argv[flag + 1:]
    assert cli._estimated_peak(_args(argv)) > cli._PEAK_BYTES_MAX
    assert cli._estimated_peak(_args(below)) <= cli._PEAK_BYTES_MAX


def _clear_caches():
    for cached in (specfun._krawtchouk_table, specfun._krawtchouk_shift_table,
                   specfun._dual_hahn_table, specfun._leading_columns, fourier._S_table,
                   wavefunctions._closed_row):
        cached.cache_clear()


# From cold caches, near the j of the estimate's figures where a run is
# cheap. Fourier's figure is mostly its printed text, the same per entry at
# any j; verify at this j_max measures its fixed checks. limits at
# j = 200000 reads 16 columns of each table: its estimate, 116 MB, is under
# 1/1000 of one (j+1)^2 table of floats.
@pytest.mark.parametrize("argv", [
    ("spectrum", "--j", "20000", "--observable", "p"),
    ("wavefunction", "--j", "300", "--p", "0.3", "--n", "1"),
    ("wavefunction", "--j", "300", "--p", "0.3", "--kind", "momentum",
     "--n", ",".join(map(str, range(0, 601, 6)))),
    ("limits", "--j", "300", "--p", "0.3", "--alpha", "10", "--n", "2"),
    ("fourier", "--j", "150", "--p", "0.3", "--method", "spectral"),
    ("verify", "--j-max", "12", "--p-list", "0.5"),
    ("limits", "--j", "200000", "--p", "0.3", "--alpha", "10", "--n", "2"),
])
def test_peak_is_at_most_the_estimate(capsys, argv):
    _clear_caches()
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        _clear_caches()
    assert code == 0
    assert peak <= cli._estimated_peak(_args(argv))


# CI's limits command and one at j = 8000, each run at one and at two BLAS
# threads. Up to j = 8000 the columns' inverse iteration rounds the same
# whatever the thread count; from about j = 20000 the bytes differ.
@pytest.mark.parametrize("j", [2000, 8000])
def test_limits_bytes_do_not_depend_on_the_blas_thread_count(j):
    argv = [sys.executable, "-m", "superosc", "limits", "--j", str(j), "--p", "0.3",
            "--alpha", "10", "--n", "2"]
    outputs = [subprocess.run(argv, capture_output=True, check=True, env={
        **os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": _SRC}).stdout
        for threads in ("1", "2")]
    assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 2 + 15


@pytest.mark.parametrize("argv", [
    ("verify", "--p-list", ","),
    ("verify", "--p-list", ""),
    ("wavefunction", "--j", "2", "--p", "0.5", "--n", ","),
])
def test_empty_lists_are_usage_errors(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (2, "")


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-10"])
def test_bad_tolerance_exits_3(capsys, monkeypatch, tol):
    code, out, err = run(capsys, "verify", "--j-max", "1", f"--tol={tol}")
    assert (code, out) == (3, "") and err.startswith("error:") and "tol" in err
    monkeypatch.setenv("SUPEROSC_TOL", tol)
    code, out, err = run(capsys, "verify", "--j-max", "1")
    assert (code, out) == (3, "") and err.startswith("error:") and "tol" in err


@pytest.mark.parametrize("tol", ["abc", ""], ids=["abc", "empty"])
def test_unreadable_env_tolerance_exits_3_naming_the_variable(capsys, monkeypatch, tol):
    monkeypatch.setenv("SUPEROSC_TOL", tol)
    code, out, err = run(capsys, "verify", "--j-max", "1")
    assert (code, out) == (3, "") and err.startswith("error:") and "SUPEROSC_TOL" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_non_finite_alpha_exits_3_with_one_error_line(capsys, alpha):
    code, out, err = run(capsys, "limits", "--j", "20", "--p", "0.5", "--alpha", alpha)
    assert (code, out) == (3, "")
    assert err.splitlines() == [f"error: need a finite alpha > 0, got alpha={alpha}"]


def test_failed_inverse_iteration_exits_3_naming_the_table(capsys, monkeypatch):
    # LAPACK dstein reports columns that did not converge with info > 0.
    monkeypatch.setattr(specfun, "dstein", lambda d, *args: (np.zeros((len(d), 16)), 2))
    _clear_caches()
    code, out, err = run(capsys, "limits", "--j", "20", "--p", "0.5", "--alpha", "10")
    assert (code, out) == (3, "")
    assert err.splitlines() == ["error: dual Hahn columns 0..15 at N=20, parameters (10.0, 10.0): "
                                "inverse iteration failed, dstein info=2"]


@pytest.mark.filterwarnings("error")
def test_overflowing_alpha_exits_3_with_one_error_line(capsys):
    code, out, err = run(capsys, "limits", "--j", "20", "--p", "0.5", "--alpha", "1e308")
    assert (code, out) == (3, "")
    [line] = err.splitlines()
    assert line.startswith("error: gamma=") and "delta=" in line


_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                2.2250738585072014e-308 / 3, 1.7976931348623157e308, 1.0, 0.1, -0.1]


def _json_fmt(value):
    return _fmt(value) if math.isfinite(value) else "null"


def test_bulk_formatter_equals_per_value_fmt():
    values = np.array(_EDGE_FLOATS)
    expected = ",".join(_fmt(v) for v in values)
    assert _fmt_seq(values) == expected
    assert _fmt_seq(values.tolist()) == expected
    assert _fmt_seq(values, sep="\n") == "\n".join(_fmt(v) for v in values)
    assert _fmt_seq([]) == ""
    assert _fmt_seq([-0.0]) == "-0"

    pairs = np.array([complex(re, im) for re in _EDGE_FLOATS for im in _EDGE_FLOATS[::-1]])
    assert _fmt_seq(_floats(pairs)) == ",".join(
        f"{_fmt(v.real)},{_fmt(v.imag)}" for v in pairs)
    # JSON writes each non-finite float as null.
    assert _json(pairs) == "[" + ",".join(
        f"[{_json_fmt(v.real)},{_json_fmt(v.imag)}]" for v in pairs) + "]"
    assert _json(values) == "[" + ",".join(_json_fmt(v) for v in values) + "]"
    # A strided view reads the same values as its contiguous copy.
    assert _json(np.vstack([pairs, pairs]).T[0]) == _json(pairs[:1].repeat(2))

    # Formatting each distinct bit pattern once: 0.0 and -0.0 stay apart,
    # and NaNs with the sign bit or a payload set equal _fmt's text.
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                     0xFFF0000000000001, 0x7FF0000000000001], dtype=np.uint64).view(np.float64)
    edge = np.concatenate([values, nans, values[::-1], [0.0, -0.0, -0.0, 0.0]])
    assert _fmt_array(edge).tolist() == [_fmt(v) for v in edge]
    assert _fmt_array(np.array([-0.0, 0.0, -0.0])).tolist() == ["-0", "0", "-0"]
    assert _fmt_array(edge.reshape(3, -1)).tolist() == [
        [_fmt(v) for v in row] for row in edge.reshape(3, -1)]
    # A 2-D complex matrix with repeated values, as interleaved (re, im)
    # texts, and the 2-D JSON that reads them.
    square = pairs.reshape(12, 12)
    matrix = np.vstack([square, square[::-1].T, square[:, ::-1]])
    assert _fmt_array(matrix).tolist() == [
        [text for v in row for text in (_fmt(v.real), _fmt(v.imag))] for row in matrix]
    assert _json(matrix) == "[" + ",".join(
        "[" + ",".join(f"[{_json_fmt(v.real)},{_json_fmt(v.imag)}]" for v in row) + "]"
        for row in matrix) + "]"
    assert _json(matrix.real) == "[" + ",".join(
        "[" + ",".join(_json_fmt(v.real) for v in row) + "]" for row in matrix) + "]"
    assert _json(np.empty((0, 3))) == "[]" and _json(np.empty((2, 0))) == "[[],[]]"


def _json_per_value(value):
    # The per-value rendering the CLI's JSON must equal.
    if isinstance(value, dict):
        return "{" + ",".join(f'"{k}":{_json_per_value(v)}' for k, v in value.items()) + "}"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, (complex, np.complexfloating)):
        return f"[{_fmt(value.real)},{_fmt(value.imag)}]"
    return "[" + ",".join(_json_per_value(v) for v in value) + "]"


@pytest.mark.parametrize("j, p", [
    pytest.param(j, p, id=str(j) if p == 0.37 else f"{j}-{p}")
    for p in (0.37, 0.5, 0.7) for j in (0, 1, 5, 40, 72)])
@pytest.mark.parametrize("method", ["analytic", "spectral"])
def test_fourier_text_equals_per_value_rendering(capsys, j, p, method):
    params = ModelParams(j, p)
    matrix = (fourier_analytic(params) if method == "analytic"
              else fourier_spectral(params)).data
    _, csv_out, _ = run(capsys, "fourier", "--j", str(j), "--p", str(p), "--method", method)
    lines = [f"# j={j} p={_fmt(p)} method={method}",
             ",".join(f"c{c}_re,c{c}_im" for c in range(2 * j + 1))]
    for row in matrix:
        lines.append(",".join(f"{_fmt(v.real)},{_fmt(v.imag)}" for v in row))
    assert csv_out == "\n".join(lines) + "\n"

    _, json_out, _ = run(capsys, "fourier", "--j", str(j), "--p", str(p), "--method", method,
                         "--format", "json")
    payload = {"j": j, "p": p, "method": method,
               "matrix": [[complex(v) for v in row] for row in matrix]}
    assert json_out == _json_per_value(payload) + "\n"


def test_momentum_wavefunction_text_equals_per_value_rendering(capsys):
    levels = (0, 3, 16)
    tables = [momentum_wavefunction(ModelParams(8, 0.3), n) for n in levels]
    _, csv_out, _ = run(capsys, "wavefunction", "--j", "8", "--p", "0.3", "--n", "0,3,16",
                        "--kind", "momentum")
    blocks = []
    for t in tables:
        lines = [f"# j=8 p={_fmt(0.3)} n={t.n} kind=momentum energy={_fmt(t.energy)}",
                 "grid,amplitude_re,amplitude_im"]
        for point, amp in zip(t.grid, t.amplitudes):
            lines.append(f"{_fmt(point)},{_fmt(amp.real)},{_fmt(amp.imag)}")
        blocks.append("\n".join(lines))
    assert csv_out == "\n\n".join(blocks) + "\n"

    _, json_out, _ = run(capsys, "wavefunction", "--j", "8", "--p", "0.3", "--n", "0,3,16",
                         "--kind", "momentum", "--format", "json")
    payload = [{"j": 8, "p": 0.3, "n": t.n, "kind": "momentum", "energy": t.energy,
                "grid": list(t.grid), "amplitude": [complex(a) for a in t.amplitudes]}
               for t in tables]
    assert json_out == _json_per_value(payload) + "\n"


@pytest.mark.parametrize("kind", ["position", "momentum"])
def test_wavefunction_text_equals_dense_rows(capsys, kind):
    # The rows the CLI prints are the rows of the dense eigenvector matrices.
    j, p, levels = 9, 0.37, (0, 1, 6, 11, 18)
    params = ModelParams(j, p)
    dense = analytic_U(params) if kind == "position" else analytic_V(params)
    grid = position_spectrum(j)
    argv = ("wavefunction", "--j", str(j), "--p", str(p), "--n", "0,1,6,11,18", "--kind", kind)
    _, csv_out, _ = run(capsys, *argv)
    blocks = []
    for n in levels:
        header = "grid,amplitude_re" + (",amplitude_im" if kind == "momentum" else "")
        lines = [f"# j={j} p={_fmt(p)} n={n} kind={kind} energy={_fmt(n + 0.5)}", header]
        for point, amp in zip(grid, dense[n]):
            parts = [_fmt(point), _fmt(amp.real)]
            if kind == "momentum":
                parts.append(_fmt(amp.imag))
            lines.append(",".join(parts))
        blocks.append("\n".join(lines))
    assert csv_out == "\n\n".join(blocks) + "\n"

    _, json_out, _ = run(capsys, *argv, "--format", "json")
    convert = float if kind == "position" else complex
    payload = [{"j": j, "p": p, "n": n, "kind": kind, "energy": n + 0.5, "grid": list(grid),
                "amplitude": [convert(a) for a in dense[n]]} for n in levels]
    assert json_out == _json_per_value(payload) + "\n"


def test_limits_text_equals_per_value_rendering(capsys):
    rows = paraboson_limit_table(30, 0.3, 10.0, 1, 15)
    _, csv_out, _ = run(capsys, "limits", "--j", "30", "--p", "0.3", "--alpha", "10", "--n", "1")
    lines = [f"# j=30 p={_fmt(0.3)} alpha=10 n=1", "x,discrete,continuum,limit_gap"]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    assert csv_out == "\n".join(lines) + "\n"

    _, json_out, _ = run(capsys, "limits", "--j", "30", "--p", "0.3", "--alpha", "10",
                         "--n", "1", "--format", "json")
    payload = {"j": 30, "p": 0.3, "alpha": 10.0, "n": 1, "rows": [list(r) for r in rows]}
    assert json_out == _json_per_value(payload) + "\n"


def test_hamiltonian_spectrum_equals_sorted_diagonal(capsys):
    for j in range(51):
        values = np.sort(np.diag(hamiltonian_matrix(j)))
        _, out, _ = run(capsys, "spectrum", "--j", str(j), "--observable", "H")
        assert out == "\n".join([f"# j={j} observable=H", "value"]
                                + [_fmt(v) for v in values]) + "\n"
        _, out, _ = run(capsys, "spectrum", "--j", str(j), "--observable", "H",
                        "--format", "json")
        assert out == _json_per_value({"j": j, "observable": "H",
                                       "values": list(values)}) + "\n"


def test_hamiltonian_spectrum_needs_no_dense_matrix(capsys):
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "spectrum", "--j", "20000", "--observable", "H")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and out.splitlines()[-1] == "40000.5"
    assert peak < 16 * 2**20


# sha256 of `fourier --method analytic` stdout with the overlaps taken from
# the exact integer route, through the same block layout and formatter. Each
# exact overlap is one correctly rounded integer true division and one
# math.sqrt, and each matrix entry one IEEE product of it by -i/2, 1/2 or
# -i/sqrt(2), so these bytes should be the same on every IEEE platform; a
# change to them is a change to the layout or to the printed format.
_ANALYTIC_FOURIER_SHA256 = {
    (12, "0.3", "csv"): "3269e766eec7071e57c4b5e3abb1d46c75a2065a10948ec933d00c020da7f5e9",
    (12, "0.3", "json"): "62bdcd33c772a009816e7fcf46456ce84da13546a402b6d07c06128100cdf212",
    (25, "0.7", "csv"): "6397f7ec2987b44f3a663147db9f0a80ac06e86b5be992a9476520fdccc55b3a",
    (25, "0.7", "json"): "0aedd417ef8d6ec4d5d3f5d7d4b660e0ab969cb1a755c1fa8daf4caa2f9d281e",
    (40, "0.1", "csv"): "1a89e93a179f7e83c4155e75a8f1240689fa01228a226973fb18d398a4505bad",
    (40, "0.1", "json"): "4639e56c6486e72fc9cd38c066660e86b3e04d3b57ab52867b465db2028dacc4",
    (17, "0.5", "csv"): "47376b09bacded46a16590c1590b245e0b34a73d5ab332b3ffb7e34fbba8884b",
    (17, "0.5", "json"): "9dc0d97e3d40b7f21b4df4a87ed4b6a1d96bed22b6a6913fdb8ea2ed6c42344f",
}


def _exact_fourier(params):
    # F from the exact overlap tables, through fourier_analytic's layout.
    j, p = params.j, params.p
    odd = fourier._S_table(p, j - 1) if j else np.empty((0, 0))
    return fourier.FourierMatrix(fourier._S_table(p, j), odd)


@pytest.mark.parametrize("j,p,fmt", sorted(_ANALYTIC_FOURIER_SHA256))
def test_analytic_fourier_output_matches_golden_hash(capsys, monkeypatch, j, p, fmt):
    monkeypatch.setattr(cli, "fourier_analytic", _exact_fourier)
    code, out, err = run(capsys, "fourier", "--j", str(j), "--p", p,
                         "--method", "analytic", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _ANALYTIC_FOURIER_SHA256[j, p, fmt]


def _printed_matrix(out):
    # The complex matrix of `fourier` CSV output: re,im pairs per row.
    values = np.array([[float(v) for v in line.split(",")] for line in out.splitlines()[2:]])
    return values[:, 0::2] + 1j * values[:, 1::2]


@pytest.mark.parametrize("j,p", sorted({(j, p) for j, p, _ in _ANALYTIC_FOURIER_SHA256})
                         + [(25, repr(0.5 + d)) for d in (-1e-6, 1e-8, 3e-9, 1e-12)])
def test_analytic_fourier_output_is_near_the_exact_route(capsys, j, p):
    code, out, err = run(capsys, "fourier", "--j", str(j), "--p", p, "--method", "analytic")
    assert (code, err) == (0, "")
    exact = _exact_fourier(ModelParams(j, float(p))).data
    assert np.max(np.abs(_printed_matrix(out) - exact)) <= 1e-13


# sha256 of `fourier --method spectral` and of `wavefunction --kind momentum`
# (every level) CSV stdout. Both read the quarter-turn phases of
# oscillator._QUARTER_TURNS, and these bytes pin them, zero signs included.
# Unlike the exact-route hashes above they also depend on the eigensolver
# and the BLAS products (x86-64, OpenBLAS) of the spectral route's tables,
# T diag(s) T^T, whose last bits change with the thread count (at 1 against
# 2 threads from j = 150 on; these cases agree at 1, 2 and 4): the
# `fourier` hashes were taken at two threads, and their cases run at two.
_PHASED_OUTPUT_SHA256 = {
    ("fourier", 1, "0.3"): "8bccd4ea867529f2b7192d6f3fa17341a37a31e790146eb9234960f59cea2948",
    ("fourier", 1, "0.5"): "1f567423975f911c97b325c94e013e68d50d223b9dcb28e09095b71e0c42c060",
    ("fourier", 1, "0.9"): "fe6f8b3d7bf035abb0dfc5c3d5999b2a8e2e05dddfb9d741997112ff1f167583",
    ("fourier", 12, "0.3"): "b02b2d1c632582b5cf9977d9665d0e86d11ac7538ce71570c765440221318425",
    ("fourier", 12, "0.5"): "7be3211391058b0d083264f671d76f3575d945388d8aa1f7c06576b2b437cc28",
    ("fourier", 12, "0.9"): "2ce0af3a5ceabd6a5a4c2e61589572273605ba8cd754c75969bb820ada90c037",
    ("fourier", 72, "0.3"): "6ac88945fe84d76f74958626a3d8c074b7b7c6f61d36a84dd41828676ddf35cc",
    ("fourier", 72, "0.5"): "db7343d30add7ccec8899e72ee9a0a5faadb076f94e1232913ed135541129f66",
    ("fourier", 72, "0.9"): "0f5c70a546e8546fcc4ea423515a59ae7febc0a01ebf0e596fc600948003399d",
    ("momentum", 1, "0.3"): "04d7ebd873c53e23cacb8cf59db499453477bb4b6b921cb510e40811708a3a1b",
    ("momentum", 1, "0.5"): "1a9a955d56b1bd9b982f6ec4ad03e5ba7eb890022d1dc1ce02d26cf1ed0cf87e",
    ("momentum", 1, "0.9"): "8dcd56b1c70e19aafe331256b1449b5c62703d8a1814662eb4cc33cb5a263202",
    ("momentum", 12, "0.3"): "4da1869ee9d4d672a9bedd661405865f7b875fcbfe117147acf17756e050f77f",
    ("momentum", 12, "0.5"): "24aa84083d94b53b0c4b7f2fc8ddfc44f973b682ba0cb877a99b35fce03e50b1",
    ("momentum", 12, "0.9"): "646236eb8e2a223ea7a86454fd657073f70f095700ddd718f25e1155b0f04836",
    ("momentum", 72, "0.3"): "90931fd07655b4bd20571054ba19c80167f8b30be277ad53114f5ac5cba4f355",
    ("momentum", 72, "0.5"): "6ec61eaacc9d603166e4d11b828736f62885ac82446fa0437631f1742c613909",
    ("momentum", 72, "0.9"): "458fa5f2cfb5418f0c9939ee535cae5aa86fb619562d54c7c0921ae6c1a84a57",
}


# Prints, as JSON, the exit code, stderr and stdout sha256 of
# `fourier --method spectral` at each (j, p) of its argument.
_SPECTRAL_HASHES = """
import contextlib, hashlib, io, json, sys
from superosc.cli import main
results = []
for j, p in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["fourier", "--j", str(j), "--p", p, "--method", "spectral"])
    results.append([j, p, code, err.getvalue(), hashlib.sha256(out.getvalue().encode()).hexdigest()])
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def spectral_hashes():
    # One child process at the thread count the hashes were taken at,
    # whatever this process's BLAS runs on.
    cases = sorted((j, p) for kind, j, p in _PHASED_OUTPUT_SHA256 if kind == "fourier")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": _SRC}
    out = subprocess.run([sys.executable, "-c", _SPECTRAL_HASHES, json.dumps(cases)],
                         capture_output=True, text=True, env=env, check=True).stdout
    return {(j, p): (code, err, digest) for j, p, code, err, digest in json.loads(out)}


@pytest.mark.parametrize("kind,j,p", sorted(_PHASED_OUTPUT_SHA256))
def test_phased_output_matches_golden_hash(capsys, spectral_hashes, kind, j, p):
    if kind == "fourier":
        code, err, digest = spectral_hashes[j, p]
    else:
        code, out, err = run(capsys, "wavefunction", "--j", str(j), "--p", p,
                             "--kind", "momentum", "--n", ",".join(map(str, range(2 * j + 1))))
        digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, err) == (0, "")
    assert digest == _PHASED_OUTPUT_SHA256[kind, j, p]


_LEVELS_12 = ",".join(map(str, range(25)))
# sha256 of stdout for output no hash above covers: every spectrum, limits,
# position rows in both formats, momentum rows and the spectral transform in
# JSON, j = 0 included. The header fields and the JSON objects are pinned
# with them. These cases give the same bytes at one and two BLAS threads.
_OUTPUT_SHA256 = {
    ("spectrum", "--j", "7", "--observable", "q"):
        "7d9b2950c9d909b18fa71725b490b002a55d1308669cda43aab2747dc114e1e6",
    ("spectrum", "--j", "7", "--observable", "p", "--format", "json"):
        "9cd965c8b97004f050965838aef7d472710371f183705e42ce2597843d3554cc",
    ("spectrum", "--j", "7", "--observable", "H"):
        "6b437ec27388788b1bdcae33a9d6a02a9faaab9ef12f8f6ad25e43f55f6d6e78",
    ("spectrum", "--j", "7", "--observable", "H", "--format", "json"):
        "09af30c47c0be3c75b7bbccfc3fea5994b989bb6ec2defefdeb85249295aafa4",
    ("spectrum", "--j", "0", "--observable", "q", "--format", "json"):
        "ee849008de20ecbcbf997c3fb4655d16a504d968e1130bda1c67ad03c2112256",
    ("limits", "--j", "5", "--p", "0.3", "--alpha", "10", "--n", "2"):
        "e4d228af3b750284bb8571b4424d88226009a4515603418d0248152807d66567",
    ("limits", "--j", "5", "--p", "0.3", "--alpha", "10", "--n", "2", "--format", "json"):
        "a7e41e38f2547b7caf027df029b3c47218ad7b3bd3e70bf254bf6fa8c77c0949",
    ("limits", "--j", "60", "--p", "0.7", "--alpha", "100", "--n", "3"):
        "dba38e330e72fb3ca765ed1dd6d92c6635201f48bfc282ff6f8729c3fd2eef1a",
    ("limits", "--j", "60", "--p", "0.7", "--alpha", "100", "--n", "3", "--format", "json"):
        "597f825b2e08508d18d373658b68afb863e1ad3c5bd9295604db233f38444506",
    ("wavefunction", "--j", "0", "--p", "0.3"):
        "0ce8abd430afc4bca2f6e0350618e868383151c4f3c955d271748447610e7197",
    ("wavefunction", "--j", "12", "--p", "0.3", "--n", _LEVELS_12):
        "f3fd49f5f15ede68dbe56629574bcfaebd1b6f7d80a5c655f1e51ccabe952493",
    ("wavefunction", "--j", "12", "--p", "0.9", "--n", _LEVELS_12, "--format", "json"):
        "d4628d2ce17c8c0cc46dd336e4058a05499128d8f2bc0789e25ce8826bd1d8d6",
    ("wavefunction", "--j", "0", "--p", "0.3", "--kind", "momentum", "--format", "json"):
        "b8caf84988bb4deb684b285f8ab0b55e44c3bb760061112f35a824a573331e74",
    ("wavefunction", "--j", "12", "--p", "0.3", "--n", _LEVELS_12, "--kind", "momentum",
     "--format", "json"):
        "54e16c2cd93f457f48f2ad3698ea05b9505508591e0929ca3df6d112358fa403",
    ("fourier", "--j", "0", "--p", "0.3", "--method", "spectral", "--format", "json"):
        "93d036ff343ce934a764665c600c366e9981f1343b97f3a151812f0271d145d2",
    ("fourier", "--j", "1", "--p", "0.3", "--method", "spectral", "--format", "json"):
        "f6263527deaa68f9a27dda09471c02c1854807913b0d718851aaa3a431de2308",
    ("fourier", "--j", "12", "--p", "0.5", "--method", "spectral", "--format", "json"):
        "a084dfa720f8e835bfc98ab05d4492e41d58def332586867393484468d44aac6",
    ("fourier", "--j", "12", "--p", "0.9", "--method", "spectral", "--format", "json"):
        "6c3d36ec96b6ea709b97a8fc194b871b3ff6c71679cd8883fc6ff572a9dc95cc",
}


@pytest.mark.parametrize("argv", list(_OUTPUT_SHA256), ids=[
    "-".join(arg.lstrip("-") for arg in argv).replace(_LEVELS_12, "all")
    for argv in _OUTPUT_SHA256])
def test_output_matches_golden_hash(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _OUTPUT_SHA256[argv]


def test_module_entry_point_prints_what_main_prints(capsys):
    _, expected, _ = run(capsys, "spectrum", "--j", "2")
    done = subprocess.run([sys.executable, "-m", "superosc", "spectrum", "--j", "2"],
                          capture_output=True, env={**os.environ, "PYTHONPATH": _SRC})
    assert (done.returncode, done.stdout, done.stderr) == (0, expected.encode(), b"")
