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
import numbers
from dataclasses import dataclass

import numpy as np

from .specfun import krawtchouk_shift_table, krawtchouk_table

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
    """Model inputs: non-negative integer j and mixing parameter p in (0,1)."""

    j: int
    p: float

    def __post_init__(self) -> None:
        # bool and integral floats such as 2.0 would fail later, inside the
        # table assembly.
        if isinstance(self.j, bool) or not isinstance(self.j, numbers.Integral) or self.j < 0:
            raise ValueError(f"need integer j >= 0, got j={self.j!r}")
        if isinstance(self.p, bool) or not 0.0 < self.p < 1.0:
            raise ValueError(f"need 0 < p < 1, got p={self.p!r}")

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
    if j < 0:
        raise ValueError(f"need j >= 0, got j={j}")
    return np.diag(2.0 * j - np.arange(2 * j + 1) + 0.5)


def position_spectrum(j: int) -> np.ndarray:
    """Shared eigenvalue grid (-sqrt(j), ..., -1, 0, 1, ..., sqrt(j))."""
    if j < 0:
        raise ValueError(f"need j >= 0, got j={j}")
    k = np.arange(-j, j + 1)
    return np.sign(k) * np.sqrt(np.abs(k))


def _fill_rows(even_table: np.ndarray | None, odd_table: np.ndarray | None, lo: int,
               even: np.ndarray, odd: np.ndarray) -> None:
    # Rows 2n of a U-layout matrix into even and rows 2n+1 into odd, for
    # n = lo, lo+1, ..., as many as each output holds; every entry is
    # written. Even rows read the (j+1)x(j+1) table, odd rows the j x j one
    # (a table may be None where its output is empty). Each row reads column
    # n of its table as a view, and its sign (-1)^n comes from the absolute n.
    j = even.shape[1] // 2
    first = (lo + 1) % 2  # position of the first odd n in the block
    if len(even):
        # Row 2n at column j+k is (-1)^n T_k(n)/sqrt(2); column j-k mirrors
        # column j+k.
        table = even_table[:, lo:lo + len(even)]
        even[:, j] = table[0]
        np.multiply(table[1:].T, _INV_SQRT2, out=even[:, j + 1:])
        even[first::2, j:] *= -1.0
        even[:, :j] = even[:, :j:-1]
    if len(odd):
        # Row 2n+1 at column j+k is (-1)^n T_{k-1}(n)/sqrt(2); column j-k
        # holds its negative and the center column is zero.
        table = odd_table[:, lo:lo + len(odd)]
        np.multiply(table.T, _INV_SQRT2, out=odd[:, j + 1:])
        odd[first::2, j + 1:] *= -1.0
        odd[:, j] = 0.0
        np.negative(odd[:, :j:-1], out=odd[:, :j])


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
    _fill_rows(krawtchouk_table(p, j), krawtchouk_shift_table(p, j) if j else None, 0,
               mat[0::2], mat[1::2])
    return mat


def _level_row(params: ModelParams, n: int) -> np.ndarray:
    # Row n of analytic_U alone, read from one column of one cached table.
    row = np.empty((1, params.dim))
    if n % 2:
        _fill_rows(None, krawtchouk_shift_table(params.p, params.j), n // 2, row[:0], row)
    else:
        _fill_rows(krawtchouk_table(params.p, params.j), None, n // 2, row, row[:0])
    return row[0]


# Phase -i * i^r of row r, by r mod 4: -i(-1)^k on row 2k, (-1)^k on row
# 2k+1. Every zero part is +0.0 (the literal -1j would carry -0.0).
_ROW_PHASES = np.array([complex(0.0, -1.0), 1.0, 1j, -1.0])


def _row_phases(j: int) -> np.ndarray:
    # The phases of rows 0..2j.
    return _ROW_PHASES[np.arange(2 * j + 1) % 4]


def analytic_V(params: ModelParams) -> np.ndarray:
    """Unitary eigenvector matrix of the momentum operator's phase convention.

    V is the position eigenvector matrix with row 2k multiplied by -i(-1)^k
    and row 2k+1 by (-1)^k, i.e. V = J U for the diagonal fourth-root-of-unity
    matrix J. V is unitary and V^T V is the anti-diagonal of -1.

    Its complex conjugate diagonalizes the momentum matrix:
    ``M_p conj(V) = conj(V) D`` with D the position spectrum, equivalently
    ``M_p V = -V D`` (conjugation by J gives J* M_p J = -M_q).
    """
    return _row_phases(params.j)[:, None] * analytic_U(params)


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
    if j < 0:
        raise ValueError(f"need j >= 0, got j={j}")
    if side == "toward-zero":
        tables = [np.diag((-1.0) ** np.arange(size)) for size in (j + 1, j)]
    elif side == "toward-one":
        tables = [np.eye(size)[::-1] for size in (j + 1, j)]
    else:
        raise ValueError(f"side must be 'toward-zero' or 'toward-one', got {side!r}")
    mat = np.empty((2 * j + 1, 2 * j + 1))
    _fill_rows(*tables, 0, mat[0::2], mat[1::2])
    return mat
