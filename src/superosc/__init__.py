"""Finite one-dimensional oscillator on a discrete sqrt(k) grid.

The model realizes position and momentum as odd elements of the Lie
superalgebra sl(2|1) acting on a (2j+1)-dimensional module. Both operators
share the p-independent spectrum +-sqrt(k), k = 0..j; their eigenvectors
are closed-form combinations of orthonormal Krawtchouk functions, the
discrete wave functions they define oscillate like their continuous
counterparts, and a symmetric unitary matrix with fourth power one maps
position wave vectors to momentum wave vectors. Large-parameter limits
recover the paraboson oscillator.
"""

from . import fourier, oracle, oscillator, report, representation, specfun, suite, wavefunctions
from .fourier import *
from .oracle import *
from .oscillator import *
from .report import *
from .representation import *
from .specfun import *
from .suite import run_suite
from .wavefunctions import *

__version__ = "0.1.0"

# Each module's __all__ is its public API, re-exported here; of suite's,
# only run_suite.
__all__ = sorted(["run_suite", *(name for module in (
    fourier, oracle, oscillator, report, representation, specfun, wavefunctions)
    for name in module.__all__)])
