"""Discrete Fourier transform matrix of the finite oscillator.

The transform F maps position wave vectors to momentum ones, V = J U = U F.
It is built by two independent routes: spectrally as U^T J U from the
position eigenvector matrix and the diagonal matrix J of the quarter-turn
rule in :mod:`superosc.oscillator`, and entry-wise from the overlaps
S(k, l; p, j), which carry no phase table. The overlaps are themselves
normalized Krawtchouk functions at w = 4p(1-p), so the entry-wise route
reads Krawtchouk tables at w where the spectral route reads them at p.
The closed 2F1 form of each overlap is also evaluated in exact integers
(:func:`S_closed`), the eigensolver-free reference for both. F is
symmetric, unitary, satisfies F^4 = I, and its eigenvalue multiplicities
follow a parity rule in j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .oscillator import _INV_SQRT2, ModelParams, _quarter_turns, analytic_U
from .report import VerificationReport
from .specfun import (
    _CACHE_SIZE,
    _krawtchouk_exact,
    _krawtchouk_shift_table,
    _krawtchouk_table,
    _ratio,
    krawtchouk_table,  # noqa: F401 - unused; kept for callers that patch each binding
)

__all__ = [
    "FourierMatrix",
    "EigenvalueMultiplicity",
    "J_matrix",
    "fourier_spectral",
    "S_closed",
    "fourier_analytic",
    "expected_multiplicities",
    "fourier_eigensystem_report",
]

@dataclass(frozen=True)
class FourierMatrix:
    """Complex (2j+1)x(2j+1) transform with axes labeled -j..j.

    ``data`` is indexed 0..2j; :meth:`entry` applies the centered labels.
    """

    data: np.ndarray
    j: int

    def entry(self, k: int, l: int) -> complex:
        """Entry F_{k,l} for centered labels k, l in -j..j."""
        if not (-self.j <= k <= self.j and -self.j <= l <= self.j):
            raise ValueError(f"labels must lie in -{self.j}..{self.j}, got ({k}, {l})")
        return complex(self.data[self.j + k, self.j + l])

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.data
        return self.data.astype(dtype)


class EigenvalueMultiplicity(NamedTuple):
    """Counts of the eigenvalues (-i, 1, i, -1), in that order."""

    minus_i: int
    plus_one: int
    plus_i: int
    minus_one: int


def J_matrix(j: int) -> np.ndarray:
    """Diagonal J of the quarter-turn phases -i * i^r, r = 0..2j: V = J U, J^4 = I."""
    if j < 0:
        raise ValueError(f"need j >= 0, got j={j}")
    return np.diag(_quarter_turns(2 * j + 1))


def fourier_spectral(params: ModelParams) -> FourierMatrix:
    """Transform via the spectral route U^T J U."""
    u = analytic_U(params)
    return FourierMatrix((u.T * _quarter_turns(params.dim)[None, :]) @ u, params.j)


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
    if not (0 <= k <= j and 0 <= l <= j):
        raise ValueError(f"need 0 <= k, l <= j, got k={k}, l={l}, j={j}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"need 0 < p < 1, got p={p}")
    k, l = max(k, l), min(k, l)
    return _S_row(p, j, k, l)[l]


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


def _S_krawtchouk(p: float, j: int) -> tuple[np.ndarray, np.ndarray]:
    # S(., .; p, j) and S(., .; p, j-1) from Krawtchouk tables at
    # w = 4p(1-p): with 1 - w = (1-2p)^2, the prefactor of the closed form
    # is the norm factor sqrt(w(l)/h(k)) of the binomial weight at w, and
    # 2F1(-k, -l; -j; 1/w) = K_k(l; w, j), so S(k, l; p, j) = sigma K~_k(l; w, j).
    # The (w, j-1) table is the forward shift of the (w, j) one: one
    # eigensolve in all. The pair (w, q) = (4p(1-p), (1-2p)^2) goes to the
    # builder as formed, since 1.0 - w would lose up to 1.7e-8 near p = 1/2.
    # At p = 1/2 (q = 0) the family is at its endpoint w = 1, the
    # anti-identity.
    q = (1.0 - 2.0 * p) ** 2
    if q == 0.0:
        return np.eye(j + 1)[::-1], np.eye(j)[::-1]
    w = 4.0 * p * (1.0 - p)
    odd = _krawtchouk_shift_table(w, q, j) if j else np.empty((0, 0))
    tables = _krawtchouk_table(w, q, j), odd
    # S is symmetric; the tables are so only to the eigensolver's error,
    # whose antisymmetric part the average removes.
    return tuple(_sigma(0.5 * (t + t.T), p) for t in tables)


def _fourier_blocks(s_j: np.ndarray, s_odd: np.ndarray) -> np.ndarray:
    # F from the overlap tables s = S(., .; p, j) and s' = S(., .; p, j-1).
    j = len(s_j) - 1
    mat = np.zeros((2 * j + 1, 2 * j + 1), dtype=complex)
    mat[j, j] = -1j * s_j[0, 0]
    if j >= 1:
        # Row k-1 of each block is label k = 1..j; the slices j-1::-1 run
        # over the mirrored labels j-k.
        up, down = slice(j + 1, None), slice(j - 1, None, -1)
        edge = -1j * _INV_SQRT2 * s_j[1:, 0]
        mat[up, j] = mat[down, j] = mat[j, up] = mat[j, down] = edge
        a = -0.5j * s_j[1:, 1:]
        b = 0.5 * s_odd
        mat[down, down] = mat[up, up] = a + b
        mat[down, up] = mat[up, down] = a - b
    return mat


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
    j, p = params.j, float(params.p)
    return FourierMatrix(_fourier_blocks(*_S_krawtchouk(p, j)), j)


def expected_multiplicities(j: int) -> EigenvalueMultiplicity:
    """Parity rule: j = 2n gives (n+1, n, n, n); j = 2n+1 gives (n+1, n+1, n+1, n)."""
    if j % 2 == 0:
        n = j // 2
        return EigenvalueMultiplicity(n + 1, n, n, n)
    n = (j - 1) // 2
    return EigenvalueMultiplicity(n + 1, n + 1, n + 1, n)


def fourier_eigensystem_report(
    params: ModelParams, tol: float = 1e-10
) -> tuple[VerificationReport, EigenvalueMultiplicity]:
    """Verify the transform's matrix properties and eigenvalue multiplicities.

    Checks, for both construction routes: symmetry, unitarity and F^4 = I;
    route agreement; that the rows of the position eigenvector matrix are
    eigenvectors (F U^T = U^T J); and that the multiplicities of
    (-i, 1, i, -1) read off the diagonal of J match the parity rule.
    """
    j = params.j
    dim = params.dim
    u = analytic_U(params)
    jdiag = _quarter_turns(dim)
    analytic = fourier_analytic(params).data
    spectral = fourier_spectral(params).data
    identity = np.eye(dim)

    report = VerificationReport()
    label = f"j={j} p={params.p}"
    report.add(f"{label} route agreement", float(np.max(np.abs(analytic - spectral))), tol)
    for route_name, mat in (("analytic", analytic), ("spectral", spectral)):
        report.add(f"{label} {route_name} symmetric",
                   float(np.max(np.abs(mat - mat.T))), tol)
        report.add(f"{label} {route_name} unitary",
                   float(np.max(np.abs(mat.conj().T @ mat - identity))), tol)
        squared = mat @ mat
        report.add(f"{label} {route_name} fourth power = I",
                   float(np.max(np.abs(squared @ squared - identity))), tol)
    report.add(f"{label} eigenvector rows (F U^T = U^T J)",
               float(np.max(np.abs(analytic @ u.T - u.T * jdiag[None, :]))), tol)

    counts = EigenvalueMultiplicity(*(int(np.sum(jdiag == value))
                                      for value in (-1j, 1.0, 1j, -1.0)))
    report.add(f"{label} multiplicity parity rule",
               0.0 if counts == expected_multiplicities(j) else 1.0, 0.0)
    return report, counts
