"""Discrete Fourier transform matrix of the finite oscillator.

The transform F maps position wave vectors to momentum ones, V = J U = U F.
F is fixed by two real overlap tables, S(p, j) of size (j+1)^2 and
S(p, j-1) of size j^2, and a :class:`FourierMatrix` holds just those. One
mirror fold lays out its dense (2j+1)^2 matrix on first read, the single
row an entry reads in O(j), and :func:`apply_fourier`'s output. The
tables come by two independent routes. The spectral route is U^T J U,
split by row parity: U's even rows are the (p, j) Krawtchouk table and its
odd rows the (p, j-1) one, so S(p, j) = T diag(s_e) T^T and
S(p, j-1) = T' diag(s_o) T'^T, with the signs s_e, s_o read off the
diagonal of J, the quarter-turn rule of :mod:`superosc.oscillator`. The
entry-wise route reads the overlaps S(k, l; p, j) as normalized Krawtchouk
functions at w = 4p(1-p), with no phase table. The closed 2F1 form of each
overlap is also evaluated in exact integers (:func:`S_closed`), the
eigensolver-free reference for both. F is symmetric, unitary, satisfies
F^4 = I, and its eigenvalue multiplicities follow a parity rule in j.

With Q the orthogonal mirror fold (the center, and the sums and differences
of the +-k halves over sqrt 2), F = Q^T (-iS (+) S') Q. So each of those
properties is one of the tables: F is symmetric, unitary or of fourth power
I exactly when S and S' are, F U^T = U^T J exactly when S T = T diag(s_e)
and S' T' = T' diag(s_o), and the multiplicities of (-i, 1, i, -1) are
((j+1+tr S)/2, (j+tr S')/2, (j+1-tr S)/2, (j-tr S')/2).
:func:`fourier_eigensystem_report` checks them there, on (j+1)^2 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .oscillator import _INV_SQRT2, ModelParams, _quarter_turns
from .report import _DEFAULT_TOL, VerificationReport, _largest
from .specfun import (
    _CACHE_SIZE,
    _finite,
    _integer,
    _krawtchouk_exact,
    _krawtchouk_shift_table,
    _krawtchouk_table,
    _probability,
    _ratio,
    krawtchouk_shift_table,
    krawtchouk_table,
)

__all__ = [
    "FourierMatrix",
    "EigenvalueMultiplicity",
    "J_matrix",
    "fourier_spectral",
    "S_closed",
    "fourier_analytic",
    "apply_fourier",
    "expected_multiplicities",
    "fourier_eigensystem_report",
]

@dataclass(frozen=True)
class FourierMatrix:
    """Complex (2j+1)x(2j+1) transform with axes labeled -j..j, held as its tables.

    ``even`` is the (j+1)x(j+1) overlap table S(p, j) and ``odd`` the j x j
    table S(p, j-1), both symmetric. ``data``, the dense matrix indexed
    0..2j, is laid out from them on first read and kept; :meth:`entry`
    applies the centered labels. The transform is read-only: it holds its
    tables as read-only views, ``data`` is read-only, and ``np.array(f)``
    returns a writable copy while ``np.asarray(f)`` returns ``data`` itself.
    """

    even: np.ndarray
    odd: np.ndarray

    def __post_init__(self) -> None:
        for name in ("even", "odd"):
            table = getattr(self, name).view()
            table.flags.writeable = False
            object.__setattr__(self, name, table)
        n = len(self.even)
        if self.even.shape != (n, n) or self.odd.shape != (n - 1, n - 1):
            raise ValueError(f"need (j+1)x(j+1) and j x j tables, "
                             f"got {self.even.shape} and {self.odd.shape}")

    @property
    def j(self) -> int:
        return len(self.even) - 1

    @property
    def shape(self) -> tuple[int, int]:
        return (2 * self.j + 1,) * 2

    @cached_property
    def data(self) -> np.ndarray:
        mat = _fourier_blocks(self.even, self.odd)
        mat.flags.writeable = False
        return mat

    def entry(self, k: int, l: int) -> complex:
        """Entry F_{k,l} for centered labels k, l in -j..j, read from the tables.

        Equal to ``data[j + k, j + l]`` bit for bit: row |k| is laid out alone,
        in O(j), and row -k is row k reversed; ``data`` is not laid out.
        """
        j = self.j
        k, l = _integer(k, "k", -j, j), _integer(l, "l", -j, j)
        m, s, row = abs(k), self.even, np.empty((1, 2 * j + 1), dtype=complex)
        if m:
            _unfold(_EDGE * s[m:m + 1, 0], _INNER * s[m:m + 1, 1:], _HALF * self.odd[m - 1:m], row)
        else:
            _unfold(_CENTER * s[0, 0], _EDGE * s[1:, 0], None, row[0])
        return complex(row[0, j + (l if k >= 0 else -l)])

    def __array__(self, dtype=None, copy=None):
        # numpy 2's protocol: copy=True always copies; copy=False never does,
        # so a dtype change then raises; None copies only for a dtype change.
        if dtype is None or np.dtype(dtype) == self.data.dtype:
            return self.data.copy() if copy else self.data
        if copy is False:
            raise ValueError(f"converting the transform to {np.dtype(dtype)} needs a copy")
        return self.data.astype(dtype)


class EigenvalueMultiplicity(NamedTuple):
    """Counts of the eigenvalues (-i, 1, i, -1), in that order."""

    minus_i: int
    plus_one: int
    plus_i: int
    minus_one: int


def J_matrix(j: int) -> np.ndarray:
    """Diagonal J of the quarter-turn phases -i * i^r, r = 0..2j: V = J U, J^4 = I."""
    return np.diag(_quarter_turns(2 * _integer(j, "j") + 1))


def _signed_gram(table: np.ndarray, signs: np.ndarray) -> np.ndarray:
    # table diag(signs) table^T, made exactly symmetric by averaging with
    # its transpose (the halving is exact). In place: one temporary of the
    # table's size besides the result.
    gram = (table * signs) @ table.T
    gram += gram.T
    gram *= 0.5
    return gram


def _table_signs(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The signs s_e = Re(i J[2n, 2n]) and s_o = Re(J[2n+1, 2n+1]) of the
    # even and odd tables, from J's diagonal.
    return (1j * phases[0::2]).real, phases[1::2].real


def fourier_spectral(params: ModelParams) -> FourierMatrix:
    """Transform via the spectral route U^T J U, in table space.

    Row r of U carries (-1)^(r//2) times a column of the (p, j) table T on
    even r and of the (p, j-1) table T' on odd r, so U^T J U splits by row
    parity and the signs square away: the even rows give
    S(p, j) = T diag(s_e) T^T with s_e = Re(i J[2n, 2n]), the odd rows
    S(p, j-1) = T' diag(s_o) T'^T with s_o = Re(J[2n+1, 2n+1]). Two real
    (j+1)^3 products; no U is assembled.
    """
    p, j = params.p, params.j
    s_even, s_odd = _table_signs(_quarter_turns(params.dim))
    even = _signed_gram(krawtchouk_table(p, j), s_even)
    odd = _signed_gram(krawtchouk_shift_table(p, j), s_odd)
    return FourierMatrix(even, odd)


def _S_row(p: float, j: int, k: int, top: int) -> list[float]:
    # S(k, l; p, j) for l = 0..top, top <= k, from the closed form
    #   S = sigma sqrt(C(j,k) C(j,l) w^(k+l) (1-w)^(j-k-l)) 2F1(-k, -l; -j; 1/w)
    #     = sigma K~_l(k; w, j),
    # w = 4p(1-p) = Q/b^2 for p = a/b, Q = 4a(b-a), and 1 - w = e^2/b^2,
    # e = b-2a: the exact normalized Krawtchouk values at (P, D) = (Q, b^2).
    # sigma = -1 where j-k-l is odd and 1-2p < 0; it flips the exact sign,
    # so an exact zero stays +0.0. At p = 1/2 (e = 0) the entries are those
    # of the anti-identity.
    a, b = _ratio(p)
    e = b - 2 * a
    if e == 0:
        return [float(k + l == j) for l in range(top + 1)]
    row = _krawtchouk_exact(k, j, 4 * a * (b - a), b * b, top)
    return [(-sign if e < 0 and (j - k - l) % 2 else sign) * mag
            for l, (sign, mag) in enumerate(row)]


def S_closed(k: int, l: int, p: float, j: int) -> float:
    """Overlap S(k, l; p, j) via the closed 2F1 form.

    Evaluates sqrt(C(j,k) C(j,l)) (4p(1-p))^((k+l)/2) (1-2p)^(j-k-l)
    * 2F1(-k, -l; -j; 1/(4p(1-p))) in exact integer arithmetic before one
    final square root. With p = a/b, Q = 4a(b-a), e = b-2a and k >= l (S is
    symmetric), the square is the integer ratio
    C(j,k) Q^k e^(2(j-k)) A^2 / (b^(2j) (Q e^2)^l l! j!/(j-l)!), where
    A = Q^l j!/(j-l)! 2F1(...) comes from a recurrence stopped at degree l;
    the result is correctly rounded from that exact ratio and then square
    rooted. That is K~_l(k; 4p(1-p), j), negated where j-k-l is odd and
    p > 1/2, from the exact Krawtchouk evaluator that
    :func:`~superosc.wavefunctions.position_wavefunction_closed` also reads.
    It is the reference :func:`fourier_analytic`'s float overlaps
    are checked against, and bit for bit the entry of the exact table that
    ``verify`` compares them with. At p = 1/2 the overlap is the anti-identity
    S(k, l; 1/2, j) = delta(k+l, j) (Chu-Vandermonde on k + l = j, the
    symmetry K~_{j-k}(n) = (-1)^n K~_k(n) and orthogonality elsewhere), which
    also covers the removable singularity of the closed form at k + l > j.
    """
    j = _integer(j, "j")
    k, l = _integer(k, "k", 0, j), _integer(l, "l", 0, j)
    k, l = max(k, l), min(k, l)
    return _S_row(_probability(p), j, k, l)[l]


@lru_cache(maxsize=_CACHE_SIZE)
def _S_table(p: float, j: int) -> np.ndarray:
    # The exact overlaps S(., .; p, j): the eigensolver-free reference that
    # verify and the tests hold fourier_analytic's overlaps against. Row k
    # of the lower triangle, mirrored into column k.
    table = np.empty((j + 1, j + 1))
    for k in range(j + 1):
        table[k, :k + 1] = table[:k + 1, k] = _S_row(p, j, k, k)
    table.flags.writeable = False
    return table


def _sigma(table: np.ndarray, p: float) -> np.ndarray:
    # The degree-N table times sigma(k, l), the sign of (1-2p)^(N-k-l):
    # -1 where N-k-l is odd and p > 1/2. As (-1)^(N-k-l) = (-1)^(N-k) (-1)^l,
    # that is one outer product of alternating signs.
    if p <= 0.5:
        return table
    alt = np.where(np.arange(len(table)) % 2 == 0, 1.0, -1.0)
    return table * np.multiply.outer(alt[::-1], alt)


# F's coefficients: -i s(0,0) at the center, -(i/sqrt 2) s(k,0) on the center
# row and column, and -(i/2) s(k,l) +- (1/2) s'(k-1,l-1) inside, + where k
# and l have one sign (the parity-preserving blocks) and - where they differ.
_CENTER, _EDGE, _INNER, _HALF = -1j, -1j * _INV_SQRT2, -0.5j, 0.5


def _unfold(center, even, odd, out: np.ndarray) -> None:
    # The mirror fold along out's last axis, labels -j..j: label 0 gets
    # center, +l gets even + odd and -l gets even - odd, where an even or
    # odd of None is zero. The -l half is out[..., :j] reversed (empty at j = 0).
    j = out.shape[-1] // 2
    upper, lower = out[..., j + 1:], out[..., :j][..., ::-1]
    out[..., j] = center
    if odd is None:
        upper[...] = lower[...] = even
    elif even is None:
        upper[...] = odd
        np.negative(odd, out=lower)
    else:
        np.add(even, odd, out=upper)
        np.subtract(even, odd, out=lower)


def _fourier_blocks(s_j: np.ndarray, s_odd: np.ndarray) -> np.ndarray:
    # F from the overlap tables s = S(., .; p, j) and s' = S(., .; p, j-1):
    # rows 0..j of the labels folded, rows -1..-j their reversals (F[-k] = F[k][::-1]).
    j = len(s_j) - 1
    mat = np.empty((2 * j + 1, 2 * j + 1), dtype=complex)
    _unfold(_CENTER * s_j[0, 0], _EDGE * s_j[1:, 0], None, mat[j])
    _unfold(_EDGE * s_j[1:, 0], _INNER * s_j[1:, 1:], _HALF * s_odd, mat[j + 1:])
    mat[:j] = mat[:j:-1, ::-1]
    return mat


def apply_fourier(phi_stack: np.ndarray, transform: FourierMatrix) -> np.ndarray:
    """Map stacked position wave vectors through the discrete transform.

    Rows of ``phi_stack`` are position wave functions sampled on the grid;
    returns the matching stack of momentum wave vectors, stack @ F. With
    the full eigenvector matrix as the stack this realizes V = U F. F is
    applied from its two real overlap tables with the coefficients and the
    mirror fold of its dense layout, two real products of (j+1)^2 and j^2
    per row, and the dense matrix is not read.
    """
    if not isinstance(transform, FourierMatrix):
        raise ValueError(f"need a FourierMatrix transform, got {type(transform).__name__}")
    phi = np.asarray(phi_stack)
    if phi.ndim != 2 or phi.shape[1] != transform.shape[0]:
        raise ValueError(f"shape mismatch: stack {phi.shape} vs transform {transform.shape}")
    # A complex stack runs as its real and imaginary halves, so every
    # product is real.
    rows, split = len(phi), np.iscomplexobj(phi)
    if split:
        phi = np.concatenate((phi.real, phi.imag))
    # The mirror halves of each row, phi+ at labels k = 1..j and phi- at -k,
    # meet the interior only as sigma = phi+ + phi- (through -(i/2) S) and
    # delta = phi+ - phi- (through S'/2), and the center and edges read S's
    # row 0: the output's imaginary part folds sigma, its real part delta.
    even, odd, j = transform.even, transform.odd, transform.j
    center, plus, minus = phi[:, j], phi[:, j + 1:], phi[:, :j][:, ::-1]
    sums = (plus + minus) @ even[1:]
    out = np.empty((len(phi), 2 * j + 1), dtype=complex)
    _unfold(_CENTER.imag * (center * even[0, 0]) + _EDGE.imag * sums[:, 0],
            _EDGE.imag * (center[:, None] * even[0, 1:]) + _INNER.imag * sums[:, 1:],
            None, out.imag)
    _unfold(0.0, None, _HALF * ((plus - minus) @ odd), out.real)
    return out[:rows] + 1j * out[rows:] if split else out


def fourier_analytic(params: ModelParams) -> FourierMatrix:
    """Transform assembled entry-wise from the overlaps S(k, l; p, j).

    With s = S(.,.; p, j) and s' = S(.,.; p, j-1):
    the center entry is -i s(0,0); the center row and column carry
    -(i/sqrt(2)) s(k,0); and for k, l >= 1 the interior blocks are
    -(i/2) s(k,l) +- (1/2) s'(k-1,l-1), the sign + on the parity-preserving
    block (both labels j-+) and - on the parity-crossing one.

    The overlaps are normalized Krawtchouk functions at w = 4p(1-p):
    S(k, l; p, j) = sigma K~_k(l; w, j), sigma = -1 exactly when j-k-l is
    odd and p > 1/2. Both tables come from one (w, j) eigensolve and its
    forward shift, so the cost is that of :func:`analytic_U`, with no
    big integers; at p = 1/2 they are the exact anti-identity. The entries
    agree with the exact overlaps of :func:`S_closed` to about 1e-14.
    """
    # With 1 - w = (1-2p)^2, the prefactor of the closed form is the norm
    # factor sqrt(w(l)/h(k)) of the binomial weight at w, and
    # 2F1(-k, -l; -j; 1/w) = K_k(l; w, j). The (w, j-1) table is the forward
    # shift of the (w, j) one. The pair (w, q) = (4p(1-p), (1-2p)^2) goes to
    # the table routines as formed, since 1.0 - w would lose up to 1.7e-8
    # near p = 1/2. At p = 1/2 (q = 0) the family is at its endpoint w = 1.
    p, j = params.p, params.j
    q = (1.0 - 2.0 * p) ** 2
    if q == 0.0:
        return FourierMatrix(np.eye(j + 1)[::-1], np.eye(j)[::-1])
    w = 4.0 * p * (1.0 - p)
    # S is symmetric; the tables are so only to the eigensolver's error,
    # whose antisymmetric part the average removes.
    tables = _krawtchouk_table(w, q, j), _krawtchouk_shift_table(w, q, j)
    return FourierMatrix(*(_sigma(0.5 * (t + t.T), p) for t in tables))


def expected_multiplicities(j: int) -> EigenvalueMultiplicity:
    """Parity rule: j = 2n gives (n+1, n, n, n); j = 2n+1 gives (n+1, n+1, n+1, n)."""
    j = _integer(j, "j")
    if j % 2 == 0:
        n = j // 2
        return EigenvalueMultiplicity(n + 1, n, n, n)
    n = (j - 1) // 2
    return EigenvalueMultiplicity(n + 1, n + 1, n + 1, n)


def fourier_eigensystem_report(
    params: ModelParams, tol: float = _DEFAULT_TOL
) -> tuple[VerificationReport, EigenvalueMultiplicity]:
    """Verify the transform's matrix properties and eigenvalue multiplicities.

    Checks, for both construction routes: symmetry, unitarity and F^4 = I;
    route agreement; that the rows of the position eigenvector matrix are
    eigenvectors (F U^T = U^T J); and that the multiplicities of
    (-i, 1, i, -1) match the parity rule, both as read off the diagonal of
    J and as read off the traces of the analytic tables. Every line is
    checked on the two real overlap tables (see the module docstring), so
    no dense matrix and no U is formed; the returned counts are J's.
    """
    tol = _finite(tol, "tol", 0)
    return _eigensystem_report(params, tol, fourier_analytic(params),
                               fourier_spectral(params))


def _eigensystem_report(
    params: ModelParams, tol: float, analytic: FourierMatrix, spectral: FourierMatrix
) -> tuple[VerificationReport, EigenvalueMultiplicity]:
    # fourier_eigensystem_report on transforms the caller already built,
    # at a tolerance it already checked.
    p, j = params.p, params.j
    phases = _quarter_turns(params.dim)
    s_even, s_odd = _table_signs(phases)

    report = VerificationReport()
    label = f"j={j} p={p}"
    report.add(f"{label} route agreement",
               _largest(analytic.even - spectral.even, analytic.odd - spectral.odd), tol)
    for route_name, f in (("analytic", analytic), ("spectral", spectral)):
        tables = f.even, f.odd
        report.add(f"{label} {route_name} symmetric",
                   _largest(*(s - s.T for s in tables)), tol)
        report.add(f"{label} {route_name} unitary",
                   _largest(*(s @ s.T - np.eye(len(s)) for s in tables)), tol)
        report.add(f"{label} {route_name} fourth power = I",
                   _largest(*(np.linalg.matrix_power(s, 4) - np.eye(len(s)) for s in tables)), tol)
    # U^T's columns fold to (-1)^n times the columns of T and T', so
    # F U^T = U^T J reads S T = T diag(s_e) and S' T' = T' diag(s_o).
    table = krawtchouk_table(p, j)
    shifted = krawtchouk_shift_table(p, j)
    report.add(f"{label} eigenvector rows (F U^T = U^T J)",
               _largest(analytic.even @ table - table * s_even,
                        analytic.odd @ shifted - shifted * s_odd), tol)

    counts = EigenvalueMultiplicity(*(int(np.sum(phases == value))
                                      for value in (-1j, 1.0, 1j, -1.0)))
    # -i and i count S's eigenvalues +1 and -1, 1 and -1 those of S'.
    trace, trace_odd = np.trace(analytic.even), np.trace(analytic.odd)
    from_traces = np.rint(np.array([j + 1 + trace, j + trace_odd,
                                    j + 1 - trace, j - trace_odd]) / 2)
    agree = counts == expected_multiplicities(j) and from_traces.tolist() == list(counts)
    report.add(f"{label} multiplicity parity rule", 0.0 if agree else 1.0, 0.0)
    return report, counts
