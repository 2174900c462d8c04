"""Faults that `verify` must catch, each with the lines it must fail.

Every case puts one NaN into the data of a line, where a fold such as
Python's ``max(worst, x)`` would drop it: a NaN compares false with
everything, so that fold keeps ``worst`` and the line passes. Each line must
fold its residual through one NaN-propagating maximum (`report._largest`).
"""

import numpy as np
import pytest

from superosc import representation, suite
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


@pytest.mark.parametrize("position", [1, 2])
def test_max_residual_keeps_a_nan(position):
    residuals = [0.1, 0.5, 0.3]
    residuals[position] = np.nan
    report = VerificationReport()
    for k, residual in enumerate(residuals):
        report.add(f"check {k}", residual, 1.0)
    assert np.isnan(report.max_residual)
