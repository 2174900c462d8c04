import importlib
import os
import subprocess
import sys

import pytest

import superosc

# The package and the submodules that declare __all__.
_MODULES = ("superosc", *(f"superosc.{name}" for name in (
    "fourier", "oracle", "oscillator", "representation", "specfun", "suite", "wavefunctions")))
# Removed from the public API: the float 2F1 series and the single-value
# helpers that no output read.
_REMOVED = ("hyp2f1_terminating", "krawtchouk", "krawtchouk_weight", "krawtchouk_norm",
            "dual_hahn", "laguerre", "S_sum")


@pytest.mark.parametrize("module", _MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    for name in mod.__all__:
        assert hasattr(mod, name), f"{mod.__name__}.{name}"


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
