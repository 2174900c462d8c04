"""Independent verification back-ends.

An implicit-shift QL eigensolver for symmetric tridiagonal matrices and an
exact rational evaluator for small Krawtchouk cases. Nothing here touches
the analytic formulas or polynomial tables used elsewhere in the package;
the point of this module is that a bug shared with the code under test
would be invisible, so it must share none of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import copysign, frexp, isfinite, ldexp, sqrt

import numpy as np

__all__ = [
    "EigenResult",
    "tridiag_eigen",
    "hermitian_tridiag_eigen",
    "hermitian_tridiag_eigenvalues",
    "krawtchouk_exact",
]

# Deflation: an off-diagonal entry counts as zero once it is below unit
# roundoff relative to its diagonal neighbours plus a floor, the square root of
# the smallest normal float relative to the norm of the whole matrix (the
# safmin term of LAPACK's dsteqr test). The floor matters where the neighbours
# are zero: without it an entry that underflows towards zero never deflates.
_MACHEP = 2.0**-52
_UNDERFLOW = 2.0**-511
_MAX_SWEEPS = 30


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues ascending, orthonormal eigenvectors in matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    iterations: int
    residual: float


def _sweep_product(rotations: list, alternating: np.ndarray) -> np.ndarray:
    """Product of one QL sweep's plane rotations, as one block Q.

    Rotation i (local index, 0 <= i < n) maps columns (z_i, z_{i+1}) of the
    eigenvector block to (c_i z_i - s_i z_{i+1}, s_i z_i + c_i z_{i+1}). The
    sweep applies rotation n-1 first, so ``rotations`` holds
    c_{n-1}, s_{n-1}, ..., c_0, s_0 in that order. The sweep's effect is
    z <- z Q with Q lower Hessenberg:
    ``Q[i, k] = c_i c_{k-1} prod_{t=k}^{i-1} (-s_t)`` for k <= i, taking
    c_{-1} = c_n = 1, and ``Q[i, i+1] = s_i``. ``alternating`` is at least
    (n+1)-square and holds (-1)^(i-k) on and below the diagonal, 0 above.
    """
    pairs = np.array(rotations)[::-1]
    s = pairs[0::2]
    c = pairs[1::2]
    n = len(s)
    q = np.empty((n + 1, n + 1))
    q[0] = 1.0
    # q[i, k] = s_k ... s_{i-1} below the diagonal, then the signs (-1)^(i-k)
    # and the zeros above it
    factors = np.where(alternating[:n, :n + 1] != 0.0, s[:, None], 1.0)
    np.cumprod(factors, axis=0, out=q[1:])
    q *= alternating[:n + 1, :n + 1]
    q[:n] *= c[:, None]
    q[:, 1:] *= c
    q.reshape(-1)[1::n + 2] = s
    return q


def _ql(offdiag, diag, vectors: bool) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Implicit-shift QL on a symmetric tridiagonal matrix.

    Returns the eigenvalues ascending (stable sort), the matching
    eigenvector columns (None unless ``vectors``) and the sweep count. The
    sweep's rotations are multiplied into the eigenvectors only when they
    are wanted; the eigenvalues do not depend on it, bit for bit.
    """
    d = [float(v) for v in diag]
    m = len(d)
    if m == 0:
        raise ValueError("empty matrix")
    e = [float(v) for v in offdiag] + [0.0]
    if len(e) != m:
        raise ValueError(f"off-diagonal length must be {m - 1}, got {len(e) - 1}")
    if not all(np.isfinite(d)) or not all(np.isfinite(e)):
        raise ValueError("inputs must be finite")
    norm = max(abs(dv) + abs(ev) for dv, ev in zip(d, e))
    # Rotations lose precision near the underflow (or overflow) threshold, so
    # a matrix of such a norm is first scaled exactly, by a power of two, to a
    # norm in [1/2, 1). The eigenvectors do not change.
    exponent = 0
    if norm != 0.0 and not _UNDERFLOW <= norm <= 1.0 / _UNDERFLOW:
        exponent = frexp(norm)[1]
        d = [ldexp(v, -exponent) for v in d]
        e = [ldexp(v, -exponent) for v in e]
        norm = ldexp(norm, -exponent)
    floor = _UNDERFLOW * norm
    if vectors:
        z = np.eye(m)
        k = np.arange(m)
        alternating = np.tril((-1.0) ** np.subtract.outer(k, k))
    iterations = 0
    for low in range(m):
        sweeps = 0
        while True:
            for split in range(low, m):
                if split == m - 1:
                    break
                if abs(e[split]) <= _MACHEP * (abs(d[split]) + abs(d[split + 1])) + floor:
                    break
            shift = d[low]
            if split == low:
                break
            if sweeps == _MAX_SWEEPS:
                raise RuntimeError(f"eigenvalue {low} failed to converge "
                                   f"after {_MAX_SWEEPS} sweeps")
            sweeps += 1
            iterations += 1
            g = (d[low + 1] - shift) / (2.0 * e[low])
            r = sqrt(g * g + 1.0)
            g = d[split] - shift + e[low] / (g + copysign(r, g))
            s = c = 1.0
            shift = 0.0
            rotations = []
            first = low
            for i in range(split - 1, low - 1, -1):
                f = s * e[i]
                b = c * e[i]
                if f == 0.0 and g == 0.0:
                    # The bulge underflowed: the matrix splits at i + 1. Keep
                    # the rotations made so far and look for a split again.
                    first = i + 1
                    break
                if abs(f) >= abs(g):
                    c = g / f
                    r = sqrt(c * c + 1.0)
                    e[i + 1] = f * r
                    s = 1.0 / r
                    c *= s
                else:
                    s = f / g
                    r = sqrt(s * s + 1.0)
                    e[i + 1] = g * r
                    c = 1.0 / r
                    s *= c
                g = d[i + 1] - shift
                r = (d[i] - g) * s + 2.0 * c * b
                shift = s * r
                d[i + 1] = g + shift
                g = c * r - b
                rotations.append(c)
                rotations.append(s)
            if vectors:
                block = z[:, first:split + 1]
                block[...] = block @ _sweep_product(rotations, alternating)
            if first > low:
                d[first] -= shift
                e[first] = 0.0
                e[split] = 0.0
                continue
            d[low] -= shift
            e[low] = g
            e[split] = 0.0
    values = np.ldexp(np.array(d), exponent)
    order = np.argsort(values, kind="stable")
    return values[order], z[:, order] if vectors else None, iterations


def tridiag_eigen(offdiag, diag, tol: float = 1e-9) -> EigenResult:
    """Diagonalize a symmetric tridiagonal matrix by implicit-shift QL.

    Plane rotations with Wilkinson shifts; each sweep's rotations are
    multiplied into the eigenvector matrix as one block product. A sweep
    whose rotation inputs both underflow to zero stops there, as the
    matrix has split. Deterministic for fixed input. Eigenvalues are
    returned in ascending order (stable sort) with eigenvector signs left
    as the iteration produces them, for the caller to align.

    Parameters
    ----------
    offdiag, diag : array_like
        Off-diagonal (length m-1) and diagonal (length m) of the matrix.
    tol : float
        Bound the final residual and orthonormality defect must meet.

    Raises
    ------
    RuntimeError
        If an eigenvalue fails to converge within 30 sweeps, or the
        verified residual or orthonormality defect exceeds ``tol`` or is
        NaN.
    """
    if not (isfinite(tol) and tol > 0.0):
        raise ValueError(f"need a finite tol > 0, got tol={tol}")
    values, vectors, iterations = _ql(offdiag, diag, vectors=True)
    m = len(values)
    dense = np.zeros((m, m))
    dense[np.arange(m), np.arange(m)] = [float(v) for v in diag]
    idx = np.arange(m - 1)
    off = np.asarray([float(v) for v in offdiag])
    dense[idx, idx + 1] = off
    dense[idx + 1, idx] = off
    residual = float(np.max(np.abs(dense @ vectors - vectors * values[None, :])))
    defect = float(np.max(np.abs(vectors.T @ vectors - np.eye(m))))
    if not (residual <= tol and defect <= tol):
        raise RuntimeError(f"result outside tolerance: residual={residual:.3e} "
                           f"orthonormality defect={defect:.3e} tol={tol:.1e}")
    return EigenResult(values, vectors, iterations, residual)


def _real_band(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The complex matrix, its superdiagonal and its real diagonal, after
    # checking that it is square, tridiagonal and Hermitian.
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"need a square matrix, got shape {mat.shape}")
    m = mat.shape[0]
    band = np.tri(m, m, 1) * np.tri(m, m, 1).T
    if np.any(mat[band == 0] != 0):
        raise ValueError("matrix has entries outside the tridiagonal band")
    if np.any(mat.conj().T != mat):
        raise ValueError("matrix is not Hermitian")
    upper = np.array([mat[i, i + 1] for i in range(m - 1)])
    diag = np.array([mat[i, i].real for i in range(m)])
    return mat, upper, diag


def hermitian_tridiag_eigen(matrix, tol: float = 1e-9) -> EigenResult:
    """Diagonalize a Hermitian tridiagonal matrix via phase reduction.

    A diagonal unitary turns the matrix into a real symmetric tridiagonal
    one with the same spectrum (|off-diagonals|, real diagonal); the real
    problem goes through :func:`tridiag_eigen` and the eigenvectors are
    re-phased. The reported residual is measured against the original
    complex matrix; a residual above ``tol``, or NaN, raises RuntimeError.
    """
    mat, upper, diag = _real_band(matrix)
    m = mat.shape[0]
    phases = np.ones(m, dtype=complex)
    for i in range(m - 1):
        entry = upper[i]
        phases[i + 1] = phases[i] * (abs(entry) / entry if entry != 0 else 1.0)
    base = tridiag_eigen(np.abs(upper), diag, tol=tol)
    vectors = phases[:, None] * base.eigenvectors
    residual = float(np.max(np.abs(mat @ vectors - vectors * base.eigenvalues[None, :])))
    if not residual <= tol:
        raise RuntimeError(f"re-phased residual {residual:.3e} exceeds tol {tol:.1e}")
    return EigenResult(base.eigenvalues, vectors, base.iterations, residual)


def hermitian_tridiag_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues alone of a Hermitian tridiagonal matrix, ascending.

    The same validation and the same QL sweeps as
    :func:`hermitian_tridiag_eigen`, whose eigenvalues these equal bit for
    bit, without accumulating the eigenvectors. With no vectors there is no
    residual to verify: the caller compares the values with a reference.
    """
    _, upper, diag = _real_band(matrix)
    return _ql(np.abs(upper), diag, vectors=False)[0]


def krawtchouk_exact(n: int, x: int, p_num: int, p_den: int, N: int) -> Fraction:
    """Exact rational Krawtchouk value K_n(x; p_num/p_den, N), N <= 12.

    Terminating-series evaluation entirely in rational arithmetic; referee
    for shift identities and suspected floating-point cancellation. The
    size cap keeps the rationals small.
    """
    if N > 12:
        raise ValueError(f"size limit exceeded: N={N} > 12")
    if not (0 <= n <= N and 0 <= x <= N):
        raise ValueError(f"need 0 <= n, x <= N, got n={n}, x={x}, N={N}")
    if not 0 < p_num < p_den:
        raise ValueError(f"need 0 < p_num < p_den, got {p_num}/{p_den}")
    p = Fraction(p_num, p_den)
    total = Fraction(1)
    term = Fraction(1)
    for s in range(n):
        numerator = Fraction(-n + s) * Fraction(-x + s)
        if numerator == 0:
            break
        term = term * numerator / (Fraction(-N + s) * Fraction(1 + s)) / p
        total += term
    return total
