"""Generator matrices of the sl(2|1) superalgebra in its (2j+1)-dimensional
atypical representation, plus verification of the structure relations and
the star (unitarity) conditions.

Basis convention, used by every module in the package: row r of a matrix
corresponds to the weight vector |j, m> with m = j - r, so r runs 0..2j
from highest to lowest weight. All generator matrices are real.
"""

from __future__ import annotations

import math

import numpy as np

from .report import VerificationReport, _largest
from .specfun import _finite, _integer

__all__ = [
    "GENERATORS",
    "ODD_GENERATORS",
    "parity",
    "generator_parity",
    "generator_matrix",
    "superbracket",
    "verify_superalgebra",
    "verify_star",
]

GENERATORS = ("F+", "F-", "G+", "G-", "H", "E+", "E-", "Z")
ODD_GENERATORS = frozenset({"F+", "F-", "G+", "G-"})


def parity(n: int) -> tuple[int, int]:
    """Indicator pair (even, odd) of an integer; exactly one is 1."""
    odd = n & 1
    return (1 - odd, odd)


def generator_parity(name: str) -> str:
    """Grading of a generator: 'odd' for F/G ladders, 'even' otherwise."""
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}")
    return "odd" if name in ODD_GENERATORS else "even"


def generator_matrix(name: str, j: int) -> np.ndarray:
    """Matrix of one generator acting on the (2j+1)-dimensional module.

    The entry at (row of the image vector, column of |j, m>) is the action
    coefficient. Odd generators shift m by +-1, the ladder part of the even
    subalgebra shifts by +-2, and H and Z are diagonal.

    Parameters
    ----------
    name : str
        One of ``GENERATORS``: "F+", "F-", "G+", "G-", "H", "E+", "E-", "Z".
    j : int
        Non-negative module label; the matrix is (2j+1) x (2j+1).
    """
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}")
    j = _integer(j, "j")
    dim = 2 * j + 1
    mat = np.zeros((dim, dim))
    for col in range(dim):
        m = j - col
        even, odd = parity(j - m)
        if name == "H":
            mat[col, col] = m / 2.0
        elif name == "Z":
            mat[col, col] = -even * (j / 2.0) - odd * ((j + 1) / 2.0)
        elif name in ("F+", "F-"):
            sign = 1.0 if name == "F+" else -1.0
            m_out = m + 1 if name == "F+" else m - 1
            if odd and -j <= m_out <= j:
                mat[j - m_out, col] = sign * math.sqrt((j + sign * m + 1) / 2.0)
        elif name in ("G+", "G-"):
            sign = 1.0 if name == "G+" else -1.0
            m_out = m + 1 if name == "G+" else m - 1
            if even and -j <= m_out <= j:
                mat[j - m_out, col] = sign * math.sqrt((j - sign * m) / 2.0)
        else:  # E+ or E-
            sign = 1.0 if name == "E+" else -1.0
            m_out = m + 2 if name == "E+" else m - 2
            if -j <= m_out <= j:
                if even:
                    coeff = 0.5 * math.sqrt((j - sign * m) * (j + sign * m + 2))
                else:
                    coeff = 0.5 * math.sqrt((j - sign * m - 1) * (j + sign * m + 1))
                mat[j - m_out, col] = coeff
    return mat


def superbracket(a: np.ndarray, b: np.ndarray, parity_a: str, parity_b: str) -> np.ndarray:
    """Graded bracket AB - (-1)^(|A||B|) BA; anticommutator iff both odd."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need equal square matrices, got {a.shape} and {b.shape}")
    for par in (parity_a, parity_b):
        if par not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {par!r}")
    if parity_a == "odd" and parity_b == "odd":
        return a @ b + b @ a
    return a @ b - b @ a


# Structure relations as (name, left pair, right-hand side in the basis):
# each entry is (label, (A, B), {generator: coefficient}).
_RELATIONS = [
    ("{F+,G+} = E+", ("F+", "G+"), {"E+": 1.0}),
    ("{F-,G-} = E-", ("F-", "G-"), {"E-": 1.0}),
    ("{F+,G-} = Z - H", ("F+", "G-"), {"Z": 1.0, "H": -1.0}),
    ("{F-,G+} = Z + H", ("F-", "G+"), {"Z": 1.0, "H": 1.0}),
    ("{F+,F+} = 0", ("F+", "F+"), {}),
    ("{F-,F-} = 0", ("F-", "F-"), {}),
    ("{F+,F-} = 0", ("F+", "F-"), {}),
    ("{G+,G+} = 0", ("G+", "G+"), {}),
    ("{G-,G-} = 0", ("G-", "G-"), {}),
    ("{G+,G-} = 0", ("G+", "G-"), {}),
    ("[H,E+] = E+", ("H", "E+"), {"E+": 1.0}),
    ("[H,E-] = -E-", ("H", "E-"), {"E-": -1.0}),
    ("[E+,E-] = 2H", ("E+", "E-"), {"H": 2.0}),
    ("[Z,H] = 0", ("Z", "H"), {}),
    ("[Z,E+] = 0", ("Z", "E+"), {}),
    ("[Z,E-] = 0", ("Z", "E-"), {}),
    ("[H,F+] = F+/2", ("H", "F+"), {"F+": 0.5}),
    ("[H,F-] = -F-/2", ("H", "F-"), {"F-": -0.5}),
    ("[Z,F+] = F+/2", ("Z", "F+"), {"F+": 0.5}),
    ("[Z,F-] = F-/2", ("Z", "F-"), {"F-": 0.5}),
    ("[E+,F+] = 0", ("E+", "F+"), {}),
    ("[E-,F-] = 0", ("E-", "F-"), {}),
    ("[E-,F+] = -F-", ("E-", "F+"), {"F-": -1.0}),
    ("[E+,F-] = -F+", ("E+", "F-"), {"F+": -1.0}),
    ("[H,G+] = G+/2", ("H", "G+"), {"G+": 0.5}),
    ("[H,G-] = -G-/2", ("H", "G-"), {"G-": -0.5}),
    ("[Z,G+] = -G+/2", ("Z", "G+"), {"G+": -0.5}),
    ("[Z,G-] = -G-/2", ("Z", "G-"), {"G-": -0.5}),
    ("[E+,G+] = 0", ("E+", "G+"), {}),
    ("[E-,G-] = 0", ("E-", "G-"), {}),
    ("[E-,G+] = G-", ("E-", "G+"), {"G-": 1.0}),
    ("[E+,G-] = G+", ("E+", "G-"), {"G+": 1.0}),
]

# Star conditions: adjoint of the key equals the stated combination.
_STAR_CONDITIONS = [
    ("Z+ = Z", "Z", ("Z", 1.0)),
    ("H+ = H", "H", ("H", 1.0)),
    ("(E+)+ = E-", "E+", ("E-", 1.0)),
    ("(E-)+ = E+", "E-", ("E+", 1.0)),
    ("(F+)+ = -G-", "F+", ("G-", -1.0)),
    ("(F-)+ = -G+", "F-", ("G+", -1.0)),
    ("(G+)+ = -F-", "G+", ("F-", -1.0)),
    ("(G-)+ = -F+", "G-", ("F+", -1.0)),
]


def verify_superalgebra(j: int, tol: float = 1e-12) -> VerificationReport:
    """Check every structure relation as a matrix residual in the module.

    Each bracket of two generator matrices is compared against the linear
    combination the algebra prescribes; the report holds the max-norm
    residual per relation.
    """
    tol = _finite(tol, "tol", 0)
    mats = {name: generator_matrix(name, j) for name in GENERATORS}
    report = VerificationReport()
    for label, (left, right), rhs in _RELATIONS:
        bracket = superbracket(mats[left], mats[right],
                               generator_parity(left), generator_parity(right))
        expected = sum((coeff * mats[g] for g, coeff in rhs.items()),
                       np.zeros_like(bracket))
        report.add(f"j={j} {label}", _largest(bracket - expected), tol)
    return report


def verify_star(j: int, tol: float = 1e-12) -> VerificationReport:
    """Check the adjoint conditions that make the module a star representation."""
    tol = _finite(tol, "tol", 0)
    mats = {name: generator_matrix(name, j) for name in GENERATORS}
    report = VerificationReport()
    for label, name, (partner, coeff) in _STAR_CONDITIONS:
        report.add(f"j={j} {label}", _largest(mats[name].T - coeff * mats[partner]), tol)
    return report
