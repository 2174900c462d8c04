import json
import math
import tracemalloc

import numpy as np
import pytest

from superosc import ModelParams, fourier_analytic
from superosc.cli import main


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


def test_domain_errors_exit_3(capsys):
    code, _, err = run(capsys, "wavefunction", "--j", "2", "--p", "0.5", "--n", "9")
    assert code == 3 and "error:" in err
    assert run(capsys, "wavefunction", "--j", "2", "--p", "1.5", "--n", "0")[0] == 3
    assert run(capsys, "spectrum", "--j", "-1")[0] == 3
    assert run(capsys, "limits", "--j", "0", "--p", "0.5", "--alpha", "10")[0] == 3


@pytest.mark.parametrize("argv", [
    ("fourier", "--j", "1000000000", "--p", "0.3"),
    ("wavefunction", "--j", "1000000000", "--p", "0.3"),
    ("verify", "--j-max", "1000000000"),
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
