"""Position and momentum operators of the finite oscillator model.

The position operator on the (2j+1)-dimensional module is a symmetric
tridiagonal matrix whose off-diagonals alternate between sqrt(p(j+1-k))
and sqrt((1-p)k); the momentum operator carries the same magnitudes with
phases +-i. Both share the p-independent spectrum -sqrt(j) .. sqrt(j) of
square roots of integers. The analytic eigenvector matrices are assembled
from orthonormal Krawtchouk functions with families (p, j) on even rows
and (p, j-1) on odd rows. Only the (p, j) table is eigensolved: the
position operator is odd, so its odd x even block maps the even rows of an
eigenvector onto its odd rows, and the (p, j-1) functions follow from the
(p, j) eigenvectors by the Krawtchouk forward shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _integer, _probability, krawtchouk_shift_table, krawtchouk_table

__all__ = [
    "ModelParams",
    "SymTridiagonal",
    "position_matrix",
    "momentum_matrix",
    "hamiltonian_matrix",
    "position_spectrum",
    "analytic_U",
    "analytic_V",
    "sign_variant",
    "limit_U",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class ModelParams:
    """Model inputs: non-negative integer j and mixing parameter p in (0,1).

    Both are stored as checked: j as an int and p as a float, whatever
    integer or real type the caller passed.
    """

    j: int
    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "j", _integer(self.j, "j"))
        object.__setattr__(self, "p", _probability(self.p))

    @property
    def dim(self) -> int:
        return 2 * self.j + 1


@dataclass(frozen=True)
class SymTridiagonal:
    """Zero-diagonal symmetric tridiagonal matrix held as its off-diagonal."""

    offdiag: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.offdiag) + 1

    def dense(self) -> np.ndarray:
        n = self.dim
        mat = np.zeros((n, n))
        idx = np.arange(n - 1)
        mat[idx, idx + 1] = self.offdiag
        mat[idx + 1, idx] = self.offdiag
        return mat


def _position_offdiag(j: int, p: float) -> np.ndarray:
    k = np.arange(1, j + 1)
    off = np.empty(2 * j)
    off[0::2] = math.sqrt(p) * np.sqrt(j + 1 - k)
    off[1::2] = math.sqrt(1.0 - p) * np.sqrt(k)
    return off


def position_matrix(params: ModelParams) -> SymTridiagonal:
    """Position operator: off-diagonals alternate sqrt(p(j+1-k)), sqrt((1-p)k).

    Equals the combination sqrt(p) F+ + sqrt(1-p) G+ - sqrt(1-p) F- - sqrt(p) G-
    of generator matrices; that identity is exercised by the test suite rather
    than assumed here.
    """
    return SymTridiagonal(_position_offdiag(params.j, params.p))


def momentum_matrix(params: ModelParams) -> np.ndarray:
    """Momentum operator: Hermitian tridiagonal with +-i times the position band.

    Returns the dense matrix with superdiagonal +i t and subdiagonal -i t, t
    the position off-diagonals. It equals the combination
    i (sqrt(p) F+ + sqrt(1-p) G+ + sqrt(1-p) F- + sqrt(p) G-) of generator
    matrices; the test suite checks that identity exactly.
    """
    off = _position_offdiag(params.j, params.p)
    mat = np.zeros((params.dim, params.dim), dtype=complex)
    idx = np.arange(len(off))
    mat[idx, idx + 1] = 1j * off
    mat[idx + 1, idx] = 1j * -off
    return mat


def hamiltonian_matrix(j: int) -> np.ndarray:
    """Oscillator Hamiltonian 2H + (j + 1/2) I: diagonal entry 2j - r + 1/2.

    As a set the spectrum is the equidistant ladder {n + 1/2 : n = 0..2j}.
    """
    j = _integer(j, "j")
    return np.diag(2.0 * j - np.arange(2 * j + 1) + 0.5)


def position_spectrum(j: int) -> np.ndarray:
    """Shared eigenvalue grid (-sqrt(j), ..., -1, 0, 1, ..., sqrt(j))."""
    root = np.sqrt(np.arange(_integer(j, "j") + 1.0))
    return np.concatenate((-root[:0:-1], root))


def _fill_even(table: np.ndarray, lo: int, out: np.ndarray) -> None:
    # Rows 2n of a U-layout matrix, n = lo, lo+1, ..., as many as out holds,
    # from the (j+1)x(j+1) table; every entry is written. Row 2n at column
    # j+k is (-1)^n T_k(n)/sqrt(2), the center unhalved, and column j-k
    # mirrors column j+k. Each row reads column n of the table as a view,
    # and its sign comes from the absolute n.
    j = out.shape[1] // 2
    cols = table[:, lo:lo + len(out)]
    out[:, j] = cols[0]
    np.multiply(cols[1:].T, _INV_SQRT2, out=out[:, j + 1:])
    out[(lo + 1) % 2::2, j:] *= -1.0
    out[:, :j] = out[:, :j:-1]


def _fill_odd(table: np.ndarray, lo: int, out: np.ndarray) -> None:
    # Rows 2n+1 likewise, from the j x j table: column j+k is
    # (-1)^n T_{k-1}(n)/sqrt(2), column j-k its negative, the center zero.
    j = out.shape[1] // 2
    cols = table[:, lo:lo + len(out)]
    np.multiply(cols.T, _INV_SQRT2, out=out[:, j + 1:])
    out[(lo + 1) % 2::2, j + 1:] *= -1.0
    out[:, j] = 0.0
    np.negative(out[:, :j:-1], out=out[:, :j])


def analytic_U(params: ModelParams) -> np.ndarray:
    """Closed-form orthogonal eigenvector matrix of the position operator.

    Column c holds the eigenvector for the c-th ascending eigenvalue of
    :func:`position_spectrum`. Even rows 2n are built from the orthonormal
    Krawtchouk family with parameters (p, j), odd rows 2n+1 from (p, j-1).
    Only the (p, j) table is eigensolved. The odd rows follow from it
    through M_q's odd x even block: M_q U = U Lambda gives, at lambda_c != 0,
    U[2n+1, c] = (sqrt(p(j-n)) U[2n, c] + sqrt((1-p)(n+1)) U[2n+2, c]) / lambda_c,
    which :func:`~superosc.specfun.krawtchouk_shift_table` evaluates on the
    (p, j) eigenvectors. Row 2n carries (-1)^n K~_k(n)/sqrt(2) at columns
    j-+k with the center column unhalved, and odd rows are antisymmetric
    with zero center.
    """
    p, j = params.p, params.j
    mat = np.empty((params.dim, params.dim))
    _fill_even(krawtchouk_table(p, j), 0, mat[0::2])
    _fill_odd(krawtchouk_shift_table(p, j), 0, mat[1::2])
    return mat


def _level_row(params: ModelParams, n: int) -> np.ndarray:
    # Row n of analytic_U alone, read from one column of one cached table.
    row = np.empty((1, params.dim))
    if n % 2:
        _fill_odd(krawtchouk_shift_table(params.p, params.j), n // 2, row)
    else:
        _fill_even(krawtchouk_table(params.p, params.j), n // 2, row)
    return row[0]


# The quarter-turn rule: phase -i * i^r of row r of V = J U, by r mod 4:
# -i(-1)^k on row 2k, (-1)^k on row 2k+1. Every zero part is +0.0 (the
# literal -1j would carry -0.0).
_QUARTER_TURNS = np.array([complex(0.0, -1.0), 1.0, 1j, -1.0])


def _quarter_turns(dim: int) -> np.ndarray:
    # The diagonal of J: the phases of rows 0..dim-1.
    return _QUARTER_TURNS[np.arange(dim) % 4]


def analytic_V(params: ModelParams) -> np.ndarray:
    """Unitary eigenvector matrix of the momentum operator's phase convention.

    V is the position eigenvector matrix with row 2k multiplied by -i(-1)^k
    and row 2k+1 by (-1)^k, i.e. V = J U for the diagonal fourth-root-of-unity
    matrix J, and V = U F for the Fourier matrix F. V is unitary and V^T V is
    the anti-diagonal of -1.

    Its complex conjugate diagonalizes the momentum matrix:
    ``M_p conj(V) = conj(V) D`` with D the position spectrum, equivalently
    ``M_p V = -V D`` (conjugation by J gives J* M_p J = -M_q).
    """
    return _quarter_turns(params.dim)[:, None] * analytic_U(params)


def sign_variant(params: ModelParams) -> tuple[SymTridiagonal, np.ndarray]:
    """Signed variant: conjugate the position operator by D1 = diag(1,1,-1,-1,...).

    Returns (position matrix with the sqrt((1-p)k) entries negated, D1 U).
    The variant has the same spectrum, with eigenvectors D1 U.
    """
    j = params.j
    off = _position_offdiag(j, params.p)
    off[1::2] *= -1.0
    r = np.arange(2 * j + 1)
    d1 = np.where(r % 4 < 2, 1.0, -1.0)
    return SymTridiagonal(off), d1[:, None] * analytic_U(params)


def limit_U(j: int, side: str) -> np.ndarray:
    """Exact limit of the position eigenvector matrix as p reaches an endpoint.

    Both sides are :func:`analytic_U`'s row layout filled from the exact
    endpoint Krawtchouk tables: diag((-1)^x) as p -> 0 and the anti-identity
    as p -> 1.

    ``side="toward-zero"``: row 0 has a single 1 at the center column; row
    2n has +1/sqrt(2) at columns j-+n; row 2n+1 has -1/sqrt(2) at column
    j-(n+1) and +1/sqrt(2) at column j+(n+1).

    ``side="toward-one"``: the reflection of the toward-zero limit. Since
    M_q(1-p) = R M_q(p) R for the anti-identity R, it equals R L diag((-1)^c),
    L the toward-zero limit and c the column index.
    """
    j = _integer(j, "j")
    if side == "toward-zero":
        even, odd = [np.diag((-1.0) ** np.arange(size)) for size in (j + 1, j)]
    elif side == "toward-one":
        even, odd = [np.eye(size)[::-1] for size in (j + 1, j)]
    else:
        raise ValueError(f"side must be 'toward-zero' or 'toward-one', got {side!r}")
    mat = np.empty((2 * j + 1, 2 * j + 1))
    _fill_even(even, 0, mat[0::2])
    _fill_odd(odd, 0, mat[1::2])
    return mat
