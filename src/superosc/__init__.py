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

from .fourier import (
    EigenvalueMultiplicity,
    FourierMatrix,
    J_matrix,
    S_closed,
    expected_multiplicities,
    fourier_analytic,
    fourier_eigensystem_report,
    fourier_spectral,
)
from .oracle import (
    EigenResult,
    hermitian_tridiag_eigen,
    hermitian_tridiag_eigenvalues,
    krawtchouk_exact,
    tridiag_eigen,
)
from .oscillator import (
    ModelParams,
    SymTridiagonal,
    analytic_U,
    analytic_V,
    hamiltonian_matrix,
    limit_U,
    momentum_matrix,
    position_matrix,
    position_spectrum,
    sign_variant,
)
from .report import CheckResult, VerificationReport
from .representation import (
    GENERATORS,
    ODD_GENERATORS,
    generator_matrix,
    generator_parity,
    parity,
    superbracket,
    verify_star,
    verify_superalgebra,
)
from .specfun import (
    dual_hahn_normalized,
    dual_hahn_table,
    krawtchouk_normalized,
    krawtchouk_shift_table,
    krawtchouk_table,
    paraboson_even_wavefunction,
)
from .suite import run_suite
from .wavefunctions import (
    WaveTable,
    apply_fourier,
    momentum_wavefunction,
    node_count,
    paraboson_limit_table,
    position_wavefunction,
    position_wavefunction_closed,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "EigenResult",
    "EigenvalueMultiplicity",
    "FourierMatrix",
    "GENERATORS",
    "J_matrix",
    "ModelParams",
    "ODD_GENERATORS",
    "S_closed",
    "SymTridiagonal",
    "VerificationReport",
    "WaveTable",
    "analytic_U",
    "analytic_V",
    "apply_fourier",
    "dual_hahn_normalized",
    "dual_hahn_table",
    "expected_multiplicities",
    "fourier_analytic",
    "fourier_eigensystem_report",
    "fourier_spectral",
    "generator_matrix",
    "generator_parity",
    "hamiltonian_matrix",
    "hermitian_tridiag_eigen",
    "hermitian_tridiag_eigenvalues",
    "krawtchouk_exact",
    "krawtchouk_normalized",
    "krawtchouk_shift_table",
    "krawtchouk_table",
    "limit_U",
    "momentum_matrix",
    "momentum_wavefunction",
    "node_count",
    "paraboson_even_wavefunction",
    "paraboson_limit_table",
    "parity",
    "position_matrix",
    "position_spectrum",
    "position_wavefunction",
    "position_wavefunction_closed",
    "run_suite",
    "sign_variant",
    "superbracket",
    "tridiag_eigen",
    "verify_star",
    "verify_superalgebra",
]
