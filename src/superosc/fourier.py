"""Discrete Fourier transform matrix of the finite oscillator.

The transform F maps position wave vectors to momentum wave vectors and is
built by two independent routes: spectrally as U^T J U from the position
eigenvector matrix and the diagonal fourth-root-of-unity matrix J, and
entry-wise from closed-form overlap sums S(k, l; p, j). F is symmetric,
unitary, satisfies F^4 = I, and its eigenvalue multiplicities follow a
parity rule in j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from .oscillator import ModelParams, analytic_U
from .report import VerificationReport
from .specfun import _hyp2f1_rational, _ratio, krawtchouk_table

__all__ = [
    "FourierMatrix",
    "EigenvalueMultiplicity",
    "J_matrix",
    "fourier_spectral",
    "S_sum",
    "S_closed",
    "fourier_analytic",
    "expected_multiplicities",
    "fourier_eigensystem_report",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


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
    """Diagonal matrix with entries -i * i^r, r = 0..2j; fourth power is I."""
    if j < 0:
        raise ValueError(f"need j >= 0, got j={j}")
    r = np.arange(2 * j + 1)
    return np.diag(-1j * 1j**r)


def fourier_spectral(params: ModelParams) -> FourierMatrix:
    """Transform via the spectral route U^T J U."""
    u = analytic_U(params)
    r = np.arange(params.dim)
    jdiag = -1j * 1j**r
    return FourierMatrix((u.T * jdiag[None, :]) @ u, params.j)


def S_sum(k: int, l: int, p: float, j: int) -> float:
    """Overlap sum S(k, l; p, j) = sum_n (-1)^n K~_k(n) K~_l(n).

    Definition of record; :func:`S_closed` must agree wherever its closed
    form is defined.
    """
    if not (0 <= k <= j and 0 <= l <= j):
        raise ValueError(f"need 0 <= k, l <= j, got k={k}, l={l}, j={j}")
    table = krawtchouk_table(p, j)
    signs = np.where(np.arange(j + 1) % 2 == 0, 1.0, -1.0)
    return float(np.sum(signs * table[k, :] * table[l, :]))


def _S_column(a: int, b: int, j: int, l: int) -> list[float]:
    # S(k, l; a/b, j) for k = l..j, from the closed form
    # S^2 = C(j,k) C(j,l) w^(k+l) (1-2p)^(2(j-k-l)) 2F1(-k, -l; -j; 1/w)^2
    # with w = 4p(1-p) = Q/b^2 and 1-2p = e/b, held as one exact integer
    # ratio (|S| <= 1, so the division cannot overflow); the powers of b
    # collect to b^(2j). The sign is that of the 2F1, flipped for odd j-k-l
    # when 1-2p < 0. At p = 1/2 the column is that of the anti-identity.
    if b == 2 * a:
        return [float(k + l == j) for k in range(l, j + 1)]
    Q, e = 4 * a * (b - a), b - 2 * a
    A, D = _hyp2f1_rational(l, j, b * b, Q)
    b2j = b ** (2 * j)
    column = []
    for k in range(l, j + 1):
        m = j - k - l
        num = comb(j, k) * comb(j, l) * Q ** (k + l) * A[k] ** 2
        den = b2j * D[k] ** 2
        if m >= 0:
            num *= e ** (2 * m)
        else:
            den *= e ** (-2 * m)
        sign = (A[k] > 0) - (A[k] < 0)
        if m % 2 and e < 0:
            sign = -sign
        column.append(sign * math.sqrt(num / den))
    return column


def S_closed(k: int, l: int, p: float, j: int) -> float:
    """Overlap S(k, l; p, j) via the closed 2F1 form.

    Evaluates sqrt(C(j,k) C(j,l)) (4p(1-p))^((k+l)/2) (1-2p)^(j-k-l)
    * 2F1(-k, -l; -j; 1/(4p(1-p))) in exact integer arithmetic before one
    final square root. At p = 1/2 the overlap is the anti-identity
    S(k, l; 1/2, j) = delta(k+l, j) (Chu-Vandermonde on k + l = j, the
    symmetry K~_{j-k}(n) = (-1)^n K~_k(n) and orthogonality elsewhere), which
    also covers the removable singularity of the closed form at k + l > j.
    """
    if not (0 <= k <= j and 0 <= l <= j):
        raise ValueError(f"need 0 <= k, l <= j, got k={k}, l={l}, j={j}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"need 0 < p < 1, got p={p}")
    return _S_column(*_ratio(p), j, min(k, l))[abs(k - l)]


@lru_cache(maxsize=64)
def _S_table(p: float, j: int) -> np.ndarray:
    a, b = _ratio(p)
    table = np.empty((j + 1, j + 1))
    for l in range(j + 1):
        table[l:, l] = table[l, l:] = _S_column(a, b, j, l)
    table.flags.writeable = False
    return table


def fourier_analytic(params: ModelParams) -> FourierMatrix:
    """Transform assembled entry-wise from the closed overlap forms.

    With s = S(.,.; p, j) and s' = S(.,.; p, j-1):
    the center entry is -i s(0,0); the center row and column carry
    -(i/sqrt(2)) s(k,0); and for k, l >= 1 the interior blocks are
    -(i/2) s(k,l) +- (1/2) s'(k-1,l-1), the sign + on the parity-preserving
    block (both labels j-+) and - on the parity-crossing one.
    """
    j, p = params.j, params.p
    s_j = _S_table(float(p), j)
    mat = np.zeros((params.dim, params.dim), dtype=complex)
    mat[j, j] = -1j * s_j[0, 0]
    if j >= 1:
        # Row k-1 of each block is label k = 1..j; the slices j-1::-1 run
        # over the mirrored labels j-k.
        up, down = slice(j + 1, None), slice(j - 1, None, -1)
        edge = -1j * _INV_SQRT2 * s_j[1:, 0]
        mat[up, j] = mat[down, j] = mat[j, up] = mat[j, down] = edge
        a = -0.5j * s_j[1:, 1:]
        b = 0.5 * _S_table(float(p), j - 1)
        mat[down, down] = mat[up, up] = a + b
        mat[down, up] = mat[up, down] = a - b
    return FourierMatrix(mat, j)


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
    jdiag = np.diag(J_matrix(j))
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

    r = np.arange(dim)
    counts = EigenvalueMultiplicity(*(int(np.sum(r % 4 == m)) for m in range(4)))
    report.add(f"{label} multiplicity parity rule",
               0.0 if counts == expected_multiplicities(j) else 1.0, 0.0)
    return report, counts
