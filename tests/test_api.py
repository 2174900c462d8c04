import ast
import importlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import superosc

# The package and the submodules that declare __all__.
_MODULES = ("superosc", *(f"superosc.{name}" for name in (
    "fourier", "oracle", "oscillator", "report", "representation", "specfun", "suite",
    "wavefunctions")))
# Removed from the public API: the float 2F1 series and the single-value
# helpers that no output read.
_REMOVED = ("hyp2f1_terminating", "krawtchouk", "krawtchouk_weight", "krawtchouk_norm",
            "dual_hahn", "laguerre", "S_sum", "dual_hahn_normalized")


@pytest.mark.parametrize("module", _MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    for name in mod.__all__:
        assert hasattr(mod, name), f"{mod.__name__}.{name}"


# Input checks that no other test reaches: (public name, arguments, message),
# with a label that tells apart the rows added for a name that already had one.
_REFUSED = (
    ("run_suite", (0,), "need j_max >= 1, got j_max=0"),
    ("run_suite", (1, (0.5, 1.0)), "need 0 < p < 1, got p=1.0"),
    ("hamiltonian_matrix", (-1,), "need j >= 0, got j=-1"),
    ("position_spectrum", (-1,), "need j >= 0, got j=-1"),
    ("limit_U", (-1, "toward-zero"), "need j >= 0, got j=-1"),
    ("J_matrix", (-1,), "need j >= 0, got j=-1"),
    ("krawtchouk_table", (0.3, -1), "need N >= 0, got N=-1"),
    ("dual_hahn_table", (1.0, 1.0, -1), "need N >= 0, got N=-1"),
    ("paraboson_limit_table", (5, 0.5, 10.0, 0, 0), "need grid_count >= 1, got grid_count=0"),
    ("tridiag_eigen", ([math.nan], [0.0, 0.0]), "inputs must be finite"),
    ("eigenvector_bound", ([math.inf], [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
     "inputs must be finite"),
    ("krawtchouk_exact", (1, 1, 3, 2, 4), "need 0 < p_num < p_den, got 3/2"),
    # Sizes, p and bounds of every kind that once gave a wrong answer, a
    # TypeError or an IndexError.
    ("position_spectrum", (2.5,), "need an integer j, got j=2.5", "float"),
    ("position_spectrum", (True,), "need an integer j, got j=True", "bool"),
    ("hamiltonian_matrix", (True,), "need an integer j, got j=True", "bool"),
    ("hamiltonian_matrix", (2.5,), "need an integer j, got j=2.5", "float"),
    ("krawtchouk_table", (0.3, 2.5), "need an integer N, got N=2.5", "float"),
    ("krawtchouk_shift_table", (0.3, 2.5), "need an integer N, got N=2.5"),
    ("dual_hahn_table", (1.0, 1.0, 2.5), "need an integer N, got N=2.5", "float"),
    ("paraboson_limit_table", (20.5, 0.5, 10.0, 0, 3), "need an integer j, got j=20.5",
     "float"),
    ("limit_U", (2.0, "toward-zero"), "need an integer j, got j=2.0", "float"),
    ("generator_matrix", ("H", 2.5), "need an integer j, got j=2.5"),
    ("S_closed", (1.5, 0, 0.3, 3), "need an integer k, got k=1.5"),
    ("run_suite", (2.5,), "need an integer j_max, got j_max=2.5", "float"),
    ("paraboson_even_wavefunction", (1.5, 3.0, 2.0), "need an integer n, got n=1.5"),
    ("ModelParams", (2, "0.5"), "need 0 < p < 1, got p='0.5'"),
    ("J_matrix", (2.5,), "need an integer j, got j=2.5", "float"),
    ("krawtchouk_normalized", (1.5, 0, 0.3, 3), "need an integer n, got n=1.5"),
    ("krawtchouk_normalized", (0, 0, 0.3, "3"), "need an integer N, got N='3'", "str-N"),
    ("krawtchouk_normalized", (0, 0, 0.3, None), "need an integer N, got N=None", "None-N"),
    ("tridiag_eigen", ([1.0], [0.0, 0.0], math.nan), "need a finite tol > 0, got tol=nan",
     "nan-tol"),
    ("tridiag_eigen", ([1.0], [0.0, 0.0], math.inf), "need a finite tol > 0, got tol=inf",
     "inf-tol"),
    # Continuum parameters and tolerances given as strings.
    ("dual_hahn_table", ("1.0", 1.0, 3), "need a finite gamma > -1, got gamma='1.0'", "str"),
    ("paraboson_limit_table", (20, 0.5, "1", 0, 3), "need a finite alpha > 0, got alpha='1'",
     "str"),
    ("paraboson_even_wavefunction", (1, "3", 2.0), "need a finite c > 0, got c='3'", "str"),
    ("run_suite", (2, (0.5,), "1e-10"), "need a finite tol > 0, got tol='1e-10'", "str"),
    # Sizes, tolerances and points that still went unchecked.
    ("expected_multiplicities", (-1,), "need j >= 0, got j=-1"),
    ("expected_multiplicities", (2.5,), "need an integer j, got j=2.5", "float"),
    ("expected_multiplicities", (True,), "need an integer j, got j=True", "bool"),
    ("verify_superalgebra", (1, math.nan), "need a finite tol > 0, got tol=nan"),
    ("verify_star", (1, "1e-10"), "need a finite tol > 0, got tol='1e-10'"),
    ("fourier_eigensystem_report", (superosc.ModelParams(1, 0.3), math.nan),
     "need a finite tol > 0, got tol=nan"),
    ("paraboson_even_wavefunction", (1, 3.0, math.nan), "need a finite x, got x=nan", "nan-x"),
    ("paraboson_even_wavefunction", (1, 3.0, math.inf), "need a finite x, got x=inf", "inf-x"),
    ("paraboson_even_wavefunction", (1, 3.0, "2"), "need a finite x, got x='2'", "str-x"),
)


@pytest.mark.parametrize("name,args,message", [row[:3] for row in _REFUSED],
                         ids=["-".join((row[0], *row[3:])) for row in _REFUSED])
def test_input_checks_raise_their_message(name, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        getattr(superosc, name)(*args)


_MODEL = superosc.ModelParams(3, 0.3)
# Every bounded integer one past each end of its range, at j = N = 3:
# (label, call, message). Each goes through the one integer rule.
_PAST_THE_BOUND = (
    ("position-level", lambda: superosc.position_wavefunction(_MODEL, 7), "need n <= 6, got n=7"),
    ("position-level-below", lambda: superosc.position_wavefunction(_MODEL, -1),
     "need n >= 0, got n=-1"),
    ("momentum-level", lambda: superosc.momentum_wavefunction(_MODEL, 7), "need n <= 6, got n=7"),
    ("closed-level", lambda: superosc.position_wavefunction_closed(_MODEL, 7),
     "need n <= 6, got n=7"),
    ("node-count-level", lambda: superosc.node_count(_MODEL, 7), "need n <= 6, got n=7"),
    ("limit-n", lambda: superosc.paraboson_limit_table(3, 0.3, 10.0, 4, 3), "need n <= 3, got n=4"),
    ("limit-n-below", lambda: superosc.paraboson_limit_table(3, 0.3, 10.0, -1, 3),
     "need n >= 0, got n=-1"),
    ("limit-grid-count", lambda: superosc.paraboson_limit_table(3, 0.3, 10.0, 0, 4),
     "need grid_count <= 3, got grid_count=4"),
    ("normalized-n", lambda: superosc.krawtchouk_normalized(4, 0, 0.3, 3), "need n <= 3, got n=4"),
    ("normalized-n-below", lambda: superosc.krawtchouk_normalized(-1, 0, 0.3, 3),
     "need n >= 0, got n=-1"),
    ("normalized-x", lambda: superosc.krawtchouk_normalized(0, 4, 0.3, 3), "need x <= 3, got x=4"),
    ("normalized-x-below", lambda: superosc.krawtchouk_normalized(0, -1, 0.3, 3),
     "need x >= 0, got x=-1"),
    ("S_closed-k", lambda: superosc.S_closed(4, 0, 0.3, 3), "need k <= 3, got k=4"),
    ("S_closed-k-below", lambda: superosc.S_closed(-1, 0, 0.3, 3), "need k >= 0, got k=-1"),
    ("S_closed-l", lambda: superosc.S_closed(0, 4, 0.3, 3), "need l <= 3, got l=4"),
    ("entry-k", lambda: superosc.fourier_spectral(_MODEL).entry(4, 0), "need k <= 3, got k=4"),
    ("entry-k-below", lambda: superosc.fourier_spectral(_MODEL).entry(-4, 0),
     "need k >= -3, got k=-4"),
    ("entry-l", lambda: superosc.fourier_spectral(_MODEL).entry(0, 4), "need l <= 3, got l=4"),
    ("entry-l-below", lambda: superosc.fourier_spectral(_MODEL).entry(0, -4),
     "need l >= -3, got l=-4"),
)


@pytest.mark.parametrize("call,message", [row[1:] for row in _PAST_THE_BOUND],
                         ids=[row[0] for row in _PAST_THE_BOUND])
def test_ranges_raise_the_integer_rule_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_apply_fourier_moved_beside_the_layout_it_reads():
    # F's layout lives in one module: wavefunctions imports nothing from
    # fourier, and the package's apply_fourier is fourier's.
    tree = ast.parse(Path(superosc.wavefunctions.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module != "fourier" and not any(
                alias.name == "fourier" for alias in node.names), ast.unparse(node)
    assert superosc.apply_fourier is superosc.fourier.apply_fourier
    assert "apply_fourier" not in superosc.wavefunctions.__all__
    assert not hasattr(superosc.wavefunctions, "apply_fourier")


def test_removed_names_are_gone():
    for mod in (superosc, superosc.specfun, superosc.fourier):
        for name in _REMOVED:
            assert name not in mod.__all__
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"


def test_runtime_needs_no_scipy_special():
    # SciPy serves the runtime only through its tridiagonal eigensolver.
    code = ("import sys, superosc, superosc.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(superosc.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"
