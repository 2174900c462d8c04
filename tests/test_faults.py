"""Faults that `verify` must catch, each with the lines it must fail.

The NaN cases put one NaN into the data of a line, where a fold such as
Python's ``max(worst, x)`` would drop it: a NaN compares false with
everything, so that fold keeps ``worst`` and the line passes. Each line must
fold its residual through one NaN-propagating maximum (`report._largest`).

The source faults edit one rule in a copy of the function's own source and
pin every line that then fails: a rule that both parities share (U's row
writer, the multiplicity rule, the E+- and Z coefficients), M_p's phases,
and the sign variant's pattern.
"""

import inspect
import json

import numpy as np
import pytest

from superosc import fourier, oscillator, representation, suite
from superosc.cli import main
from superosc.report import VerificationReport


def _with_nan(function, index, when):
    # `function`, with a NaN at `index` of a copy of its result for the
    # calls whose arguments satisfy `when`.
    def patched(*args):
        result = function(*args)
        if when(*args):
            result = np.array(result)
            result[index] = np.nan
        return result
    return patched


# name: (module, function, index of the NaN, the calls it hits,
#        run_suite's j_max, the lines that must fail)
FAULTS = {
    # Not the first relation or star condition of j = 3.
    "generator E-": (representation, "generator_matrix", (0, 0),
                     lambda name, j: name == "E-" and j == 3, 2,
                     ["j=3 superalgebra relations", "j=3 star conditions"]),
    # Not level 0: the rows of one sweep point are one line.
    "closed row": (suite, "position_wavefunction_closed", 1,
                   lambda params, n: params.j == 4 and n == 2, 4,
                   ["j=4 p=0.3 closed-form route agreement"]),
    # At j = 4 the (p, 3) overlaps are the second of the line's two tables.
    "exact overlaps": (suite, "_S_table", (1, 1),
                       lambda p, j: p == 0.3 and j == 3, 4,
                       ["j=4 p=0.3 S exact vs Krawtchouk(4p(1-p))"]),
    # Row 3 is odd: the second half of the parity line.
    "odd row of U": (suite, "analytic_U", (3, 0),
                     lambda params: params.j == 3 and params.p == 0.3, 3,
                     ["j=3 p=0.3 wave function parity"]),
    # n = 1 is the second of each size's three comparisons.
    "paraboson n=1": (suite, "paraboson_limit_table", (0, 1),
                      lambda j, p, alpha, n, grid_count: n == 1, 1,
                      ["paraboson comparison error decreases (j=200 -> 400)"]),
}


@pytest.mark.parametrize("module, function, index, when, j_max, lines",
                         FAULTS.values(), ids=FAULTS.keys())
def test_nan_fails_its_lines(monkeypatch, module, function, index, when, j_max, lines):
    monkeypatch.setattr(module, function, _with_nan(getattr(module, function), index, when))
    report = suite.run_suite(j_max, (0.3,))
    passed = {check.name: check.passed for check in report.checks}
    assert [line for line in lines if passed[line]] == []
    assert not report.passed


def test_nan_fails_verify(monkeypatch, capsys):
    generator = representation.generator_matrix
    monkeypatch.setattr(representation, "generator_matrix", _with_nan(
        generator, (0, 0), lambda name, j: name == "E-" and j == 3))
    assert main(["verify", "--j-max", "1", "--p-list", "0.3"]) == 1
    assert "FAIL  j=3 star conditions: residual=nan" in capsys.readouterr().out


def test_nan_residual_is_strict_json(monkeypatch, capsys):
    # JSON has no nan: the NaN residuals print as null, and the text parses
    # with every non-standard constant refused.
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    generator = representation.generator_matrix
    monkeypatch.setattr(representation, "generator_matrix", _with_nan(
        generator, (0, 0), lambda name, j: name == "E-" and j == 3))
    assert main(["verify", "--j-max", "1", "--p-list", "0.3", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out, parse_constant=refuse)
    failed = {check["name"]: check["residual"] for check in report["checks"]
              if not check["passed"]}
    assert failed == {"j=3 superalgebra relations": None, "j=3 star conditions": None}
    assert report["passed"] is False


@pytest.mark.parametrize("position", [1, 2])
def test_max_residual_keeps_a_nan(position):
    residuals = [0.1, 0.5, 0.3]
    residuals[position] = np.nan
    report = VerificationReport()
    for k, residual in enumerate(residuals):
        report.add(f"check {k}", residual, 1.0)
    assert np.isnan(report.max_residual)


def _mutant(function, edits):
    # `function` compiled from its own source with each key of `edits`,
    # found exactly once, replaced by its value; it runs in a copy of its
    # module's globals.
    source = inspect.getsource(function)
    for old, new in edits.items():
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    module = inspect.getmodule(function)
    namespace = dict(vars(module))
    exec(compile(source, module.__file__, "exec"), namespace)
    return namespace[function.__name__]


_POINT_LINES = ("position eigen-equation", "position eigenvectors orthogonal",
                "momentum eigenvectors unitary", "V = U F", "V^T V anti-diagonal",
                "wave function parity", "closed-form route agreement",
                "spectral transform = U^T J U", "oracle eigenvector bound")

# name: (module, function, {source text: the fault}, the lines that fail
#        in run_suite(1, (0.3,)), in order)
SOURCE_FAULTS = {
    # Odd rows mirror column j+k onto j-k unnegated. limit_U is built by the
    # same writer: toward zero it fails its orthogonality, toward one its
    # comparison with the limit written entry by entry. The convergence lines
    # compare U with such limits, so they fail too.
    "odd rows unnegated": (
        oscillator, "_fill_rows", {"(-1.0) ** odd": "1.0"},
        [f"j=1 p=0.3 {line}" for line in _POINT_LINES]
        + [line for j in range(1, 7) for line in (
            f"j={j} p->0 limit convergence (p=1e-12)", f"j={j} p->0 limit orthogonal",
            f"j={j} p->1 limit convergence (p=1-1e-12)",
            f"j={j} p->1 limit_U = entry-wise limit")]),
    # The counts of -i and -1 swapped.
    "multiplicities swapped": (
        fourier, "expected_multiplicities",
        {"(j // 2 + 1, (j + 1) // 2, (j + 1) // 2, j // 2)":
         "(j // 2, (j + 1) // 2, (j + 1) // 2, j // 2 + 1)"},
        ["j=1 p=0.3 multiplicity parity rule"]),
    # E+- takes the even columns' coefficient on odd columns too. E+ and E-
    # stay each other's transpose, so the star conditions hold.
    "E+- without the odd offset": (
        representation, "generator_matrix",
        {"sign * m - odd)": "sign * m)", "sign * m + 2 - odd)": "sign * m + 2)"},
        [f"j={j} superalgebra relations" for j in range(2, 11)]),
    "Z without the odd offset": (
        representation, "generator_matrix", {"-((j + odd) / 2.0)": "-(j / 2.0)"},
        [f"j={j} superalgebra relations" for j in range(1, 11)]),
    # M_p[1, 0] negated: M_p is no longer Hermitian.
    "M_p non-Hermitian": (
        suite, "momentum_matrix", {"    return mat": "    mat[1, 0] *= -1.0\n    return mat"},
        ["j=1 p=0.3 momentum matrix = J* M_q J", "j=1 p=0.3 Heisenberg position equation"]),
    # -i t above the diagonal and +i t below: conj(M_p) = -M_p.
    "M_p phases conjugated": (
        suite, "momentum_matrix", {"1j * off": "-1j * off", "1j * -off": "-1j * -off"},
        ["j=1 p=0.3 momentum matrix = J* M_q J", "j=1 p=0.3 Heisenberg position equation"]),
    # The variant negates the sqrt(p(j+1-k)) entries instead.
    "sign variant on the even off-diagonals": (
        suite, "sign_variant", {"off[1::2] *= -1.0": "off[0::2] *= -1.0"},
        ["j=1 p=0.3 sign variant = D1 M_q D1, D1 U"]),
    # D1 = diag(-1, 1, -1, 1, ...) instead of diag(1, 1, -1, -1, ...).
    "D1 by parity": (
        suite, "sign_variant", {"r % 4 < 2": "r % 2"},
        ["j=1 p=0.3 sign variant = D1 M_q D1, D1 U"]),
}


@pytest.mark.parametrize("module, function, edits, lines",
                         SOURCE_FAULTS.values(), ids=SOURCE_FAULTS.keys())
def test_source_fault_fails_its_lines(monkeypatch, module, function, edits, lines):
    monkeypatch.setattr(module, function, _mutant(getattr(module, function), edits))
    assert [check.name for check in suite.run_suite(1, (0.3,)).failures()] == lines


def _bound_line(report, label="j=1 p=0.3"):
    (check,) = [c for c in report.checks if c.name == f"{label} oracle eigenvector bound"]
    return check


def test_a_column_mixed_into_its_neighbour_fails_the_bound(monkeypatch):
    # Columns 1 and 2 of U at the sweep point turned by 1e-6 in their plane:
    # U stays orthogonal, and the bound must see the angle.
    theta = 1e-6
    analytic_U = suite.analytic_U

    def mixed(params):
        u = analytic_U(params).copy()
        if params.j != 1:
            return u
        a, b = u[:, 1].copy(), u[:, 2].copy()
        u[:, 1] = np.cos(theta) * a + np.sin(theta) * b
        u[:, 2] = np.cos(theta) * b - np.sin(theta) * a
        return u

    monkeypatch.setattr(suite, "analytic_U", mixed)
    check = _bound_line(suite.run_suite(1, (0.3,)))
    # The spectrum is -1, 0, 1, so each gap is the step to the neighbour the
    # column was turned into, and the bound is sin(theta) to rounding.
    assert not check.passed
    assert check.residual == pytest.approx(np.sin(theta), rel=1e-9)


def test_a_perturbed_off_diagonal_fails_the_bound(monkeypatch):
    # One entry of M_q's band 1e-6 too large: U's columns are no longer its
    # eigenvectors.
    position_matrix = suite.position_matrix

    def perturbed(params):
        off = position_matrix(params).offdiag.copy()
        off[1] *= 1.0 + 1e-6
        return oscillator.SymTridiagonal(off)

    monkeypatch.setattr(suite, "position_matrix", perturbed)
    assert not _bound_line(suite.run_suite(1, (0.3,))).passed


def test_non_hermitian_momentum_fails_verify(monkeypatch, capsys):
    # A line that fails, not an input error: exit 1, not 3.
    module, function, edits, _ = SOURCE_FAULTS["M_p non-Hermitian"]
    monkeypatch.setattr(module, function, _mutant(getattr(module, function), edits))
    assert main(["verify", "--j-max", "1", "--p-list", "0.3"]) == 1
    assert "FAIL  j=1 p=0.3 momentum matrix = J* M_q J" in capsys.readouterr().out
