"""Discrete orthogonal polynomial tables and terminating hypergeometric sums.

Provides the orthonormal Krawtchouk and dual Hahn tables, the exact integer
2F1 recurrence of the closed routes and the exact normalized Krawtchouk
values built on it, and the even paraboson wave function, whose magnitude
is assembled in log space. Orthonormal tables are produced from the
symmetric Jacobi (three-term recurrence) matrix of each family, whose
eigenvectors are the normalized polynomial values on the grid. Column
signs are fixed by anchor rows; where both anchors are too small to trust,
the sign of the column's largest entry follows from a Sturm count (the
number of negative LDL^T pivots of the shifted leading Jacobi block),
evaluated in floats for all such columns at once. The (p, N-1) Krawtchouk
table also follows from the (p, N) eigenvectors by the forward shift, with
no second eigensolve. Internally both Krawtchouk builders take the pair
(p, q), q = 1 - p, so a caller that knows 1 - p more exactly than the float
1.0 - p can pass it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "krawtchouk_normalized",
    "krawtchouk_table",
    "krawtchouk_shift_table",
    "dual_hahn_normalized",
    "dual_hahn_table",
    "paraboson_even_wavefunction",
]

# Anchor entries below this are considered sign-unreliable (solver noise
# is ~1e-14, genuine entries we accept are >= 1e-8).
_ANCHOR_FLOOR = 1e-8
# Tables kept per cache; a model reads one eigensolved and one shifted
# Krawtchouk table.
_CACHE_SIZE = 64


def _sturm_sign(diag: np.ndarray, off: np.ndarray, lam: np.ndarray,
                ns: np.ndarray) -> np.ndarray:
    # Sign of entry ns[i] relative to row 0 of the eigenvector of the Jacobi
    # matrix (diag, off < 0) at eigenvalue lam[i]: (-1) to the number of
    # negative LDL^T pivots of the leading ns x ns block shifted by lam
    # (a Sturm count, backward stable in floats). A pivot below pivmin is
    # replaced by -pivmin, scaled as in LAPACK's dstebz so that the next
    # quotient stays finite; either sign gives the same parity.
    off2 = np.concatenate(([0.0], off * off))  # off2[0] / inf starts at d_0
    pivmin = np.finfo(float).tiny * max(1.0, float(off2.max()))
    neg = np.zeros(len(lam), dtype=int)
    d = np.full(len(lam), np.inf)
    for m in range(int(ns.max())):
        d = (diag[m] - lam) - off2[m] / d
        d[np.abs(d) < pivmin] = -pivmin
        neg += (d < 0.0) & (m < ns)
    return np.where(neg % 2 == 0, 1.0, -1.0)


def _jacobi_table(diag: np.ndarray, off: np.ndarray, sign) -> np.ndarray:
    # Orthonormal table of a family whose symmetric Jacobi matrix has
    # diagonal diag and negative off-diagonal off: column x of the
    # eigenvector matrix carries the normalized polynomials at the x-th
    # lattice point, up to an overall sign. Two anchors have known true
    # sign: row 0 is sqrt(w(x)) > 0 and row N has sign (-1)^x. Use whichever
    # is larger; for columns where both are below the noise floor,
    # sign(diag, off, x, ns) gives the true sign of each one's largest entry
    # ns, relative to row 0.
    N = len(diag) - 1
    _, vecs = eigh_tridiagonal(diag, off)
    sx = np.where(np.arange(N + 1) % 2 == 0, 1.0, -1.0)
    a0 = vecs[0, :]
    aN = vecs[N, :] * sx
    anchor = np.where(np.abs(a0) >= np.abs(aN), a0, aN)
    flip = np.where(anchor < 0, -1.0, 1.0)
    weak = np.nonzero(np.abs(anchor) < _ANCHOR_FLOOR)[0]
    if len(weak):
        ns = np.argmax(np.abs(vecs[:, weak]), axis=0)
        true_sign = sign(diag, off, weak, ns)
        flip[weak] = np.where(vecs[ns, weak] > 0, true_sign, -true_sign)
    vecs *= flip[None, :]
    vecs.flags.writeable = False
    return vecs


def _krawtchouk_sign(diag: np.ndarray, off: np.ndarray, x: np.ndarray,
                     ns: np.ndarray) -> np.ndarray:
    # True sign of K~_ns(x; p, N), on the lattice eigenvalue lambda(x) = x.
    return _sturm_sign(diag, off, x.astype(float), ns)


@lru_cache(maxsize=_CACHE_SIZE)
def _krawtchouk_table(p: float, q: float, N: int) -> np.ndarray:
    # q stands for 1 - p. The Fourier overlaps pass p = 4s(1-s) with
    # q = (1-2s)^2, where the float 1.0 - p loses up to 1.7e-8 near s = 1/2.
    n = np.arange(N, dtype=float)
    nn = np.arange(N + 1, dtype=float)
    diag = p * (N - nn) + nn * q
    off = -np.sqrt(p * q * (n + 1.0) * (N - n))
    return _jacobi_table(diag, off, _krawtchouk_sign)


def krawtchouk_table(p: float, N: int) -> np.ndarray:
    """Orthonormal Krawtchouk table T[n, x] = K~_n(x; p, N), 0 <= n, x <= N.

    The table is an orthogonal (N+1)x(N+1) matrix, symmetric in (n, x).
    Returned arrays are cached and marked read-only; copy before mutating.

    Entries carry the eigensolver's absolute error of about 1e-16. Where the
    true value is below that (row 0 is sqrt(w(x)), which reaches 1e-95 at
    p = 1e-12, N = 150), neither its sign nor its magnitude is reliable: such
    row-0 entries can come out negative, e.g. -3.8e-95 there.
    """
    if N < 0:
        raise ValueError(f"need N >= 0, got N={N}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"need 0 < p < 1, got p={p}")
    p = float(p)
    return _krawtchouk_table(p, 1.0 - p, int(N))


@lru_cache(maxsize=_CACHE_SIZE)
def _krawtchouk_shift_table(p: float, q: float, N: int) -> np.ndarray:
    # Forward shift (Koekoek, Lesky & Swarttouw, section 9.11) applied to
    # the eigenvectors of the (p, N) Jacobi matrix, the columns T[:, k]:
    #   K~_{k-1}(x; p, N-1) sqrt(k)
    #     = sqrt(p(N-x)) K~_k(x; p, N) - sqrt(q(x+1)) K~_k(x+1; p, N),
    # q = 1 - p as in _krawtchouk_table. Each column x is then scaled to the
    # dual norm sum_k K~_k(x)^2 = 1. Built as its transpose, indexed [x, k-1].
    # The ordinary family (q == 1.0 - p) reads its table through the public
    # krawtchouk_table, the same cached array, so that a tracer of the
    # public entry point sees every table read.
    table = krawtchouk_table(p, N) if q == 1.0 - p else _krawtchouk_table(p, q, N)
    x = np.arange(N, dtype=float)
    k = x + 1.0
    # In place: one N x N temporary besides the result, so a cold model's
    # peak memory stays where the second eigensolve left it.
    shifted = np.sqrt(p * (N - x))[:, None] * table[:-1, 1:]
    shifted -= np.sqrt(q * k)[:, None] * table[1:, 1:]
    shifted /= np.sqrt(k)
    shifted /= np.linalg.norm(shifted, axis=1)[:, None]
    shifted = shifted.T
    shifted.flags.writeable = False
    return shifted


def krawtchouk_shift_table(p: float, N: int) -> np.ndarray:
    """The (p, N-1) table of :func:`krawtchouk_table`, derived from the (p, N) one.

    Row k-1 is the forward shift of degree k of the (p, N) eigenvectors, so
    no second eigensolve runs; each column is scaled to unit norm. It
    agrees with ``krawtchouk_table(p, N-1)`` within 1e-12 and with the same
    signs (tested for N <= 2000, p from 1e-12 to 1 - 1e-12). Cached and
    read-only like :func:`krawtchouk_table`.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got N={N}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"need 0 < p < 1, got p={p}")
    p = float(p)
    return _krawtchouk_shift_table(p, 1.0 - p, int(N))


def krawtchouk_normalized(n: int, x: int, p: float, N: int) -> float:
    """Orthonormal Krawtchouk function K~_n(x) = sqrt(w(x)/h(n)) K_n(x)."""
    if not 0 <= n <= N or not 0 <= x <= N:
        raise ValueError(f"need 0 <= n, x <= N, got n={n}, x={x}, N={N}")
    return float(krawtchouk_table(p, N)[n, x])


def _dual_hahn_sign(diag: np.ndarray, off: np.ndarray, x: np.ndarray,
                    ns: np.ndarray, shift: float) -> np.ndarray:
    # True sign of R~_ns(lambda(x)), on lambda(x) = x(x + shift) with
    # shift = gamma + delta + 1.
    return _sturm_sign(diag, off, x * (x + shift), ns)


@lru_cache(maxsize=_CACHE_SIZE)
def _dual_hahn_table(gamma: float, delta: float, N: int) -> np.ndarray:
    n = np.arange(N, dtype=float)
    nn = np.arange(N + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        diag = (nn + gamma + 1) * (N - nn) + nn * (delta + N - nn + 1)
        off = -np.sqrt((n + 1) * (n + gamma + 1) * (N - n) * (N - n + delta))
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError(f"gamma={gamma} and delta={delta} overflow the dual Hahn "
                         f"recurrence coefficients at N={N}")
    return _jacobi_table(diag, off, partial(_dual_hahn_sign, shift=gamma + delta + 1.0))


def dual_hahn_table(gamma: float, delta: float, N: int) -> np.ndarray:
    """Orthonormal dual Hahn table T[n, x] = R~_n(lambda(x)), 0 <= n, x <= N.

    Rows are indexed by degree, columns by the lattice point x of
    lambda(x) = x(x+gamma+delta+1) in increasing order. The table is an
    orthogonal matrix; cached and read-only like :func:`krawtchouk_table`.
    """
    if N < 0:
        raise ValueError(f"need N >= 0, got N={N}")
    for name, value in (("gamma", gamma), ("delta", delta)):
        if not (math.isfinite(value) and value > -1):
            raise ValueError(f"need a finite {name} > -1, got {name}={value}")
    return _dual_hahn_table(float(gamma), float(delta), int(N))


def dual_hahn_normalized(n: int, x: int, gamma: float, delta: float, N: int) -> float:
    """Orthonormal dual Hahn function sqrt(w(x)/h(n)) R_n(lambda(x))."""
    if not 0 <= n <= N or not 0 <= x <= N:
        raise ValueError(f"need 0 <= n, x <= N, got n={n}, x={x}, N={N}")
    return float(dual_hahn_table(gamma, delta, N)[n, x])


def _hyp1f1_series(n: int, a: float, x: float) -> float:
    # Terminating sum 1F1(-n; a+1; x) by term recurrence.
    total = 1.0
    term = 1.0
    for s in range(n):
        term *= (-n + s) / ((a + 1 + s) * (s + 1)) * x
        total += term
    return total


def paraboson_even_wavefunction(n: int, c: float, x: float) -> float:
    """Even paraboson oscillator wave function at level 2n, parameter c.

    Returns (-1)^n sqrt(n!/Gamma(n+c+1)) |x|^(c+1/2) exp(-x^2/2) L_n^(c)(x^2),
    which vanishes at x = 0 for c > 0 and is normalized over the real line.
    The magnitude is assembled entirely in log space: at large c the bare
    |x|^(c+1/2) factor overflows long before the gamma prefactor can cancel
    it, so the factors must never be exponentiated separately.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"need a finite c > 0, got c={c}")
    if x == 0.0:
        return 0.0
    series = _hyp1f1_series(n, c, x * x)
    if series == 0.0:
        return 0.0
    log_mag = (0.5 * math.lgamma(n + c + 1) - 0.5 * math.lgamma(n + 1) - math.lgamma(c + 1)
               + (c + 0.5) * math.log(abs(x)) - x * x / 2.0
               + math.log(abs(series)))
    sign = (-1.0) ** n * (1.0 if series > 0 else -1.0)
    return sign * math.exp(log_mag)


@lru_cache(maxsize=_CACHE_SIZE)
def _ratio(p: float) -> tuple[int, int]:
    # p as a/b in lowest terms: the closest fraction with b <= 10^15, which
    # is the decimal a float like 0.37 was written as. Cached: a model's
    # closed rows and overlap tables all convert the same p.
    pf = Fraction(p).limit_denominator(10**15)
    a, b = pf.numerator, pf.denominator
    if not 0 < a < b:
        raise ValueError(f"p={p!r} rounds to {pf} at denominators up to 10^15; "
                         f"the closed routes need it inside (0, 1)")
    return a, b


def _hyp2f1_rational(x: int, N: int, P: int, Q: int, top: int | None = None) -> list[int]:
    # Integers A[k], k = 0..top (default N), with exact
    # 2F1(-k, -x; -N; P/Q) = A[k] / (Q^k N!/(N-k)!) for integers
    # 0 <= x, top <= N and P, Q > 0. Over k the values form a Krawtchouk
    # sequence, so they follow its three-term recurrence (Koekoek, Lesky &
    # Swarttouw, section 9.11); scaled by the positive Q^k N!/(N-k)! it runs
    # in integers, and it stops at degree top.
    top = N if top is None else top
    A, step, xP = [1, Q * N - x * P], P - Q, x * P
    for k in range(1, top):
        A.append((Q * (N - k) + k * step - xP) * A[k]
                 - k * step * Q * (N - k + 1) * A[k - 1])
    return A[:top + 1]


def _krawtchouk_exact(x: int, N: int, P: int, D: int,
                      top: int | None = None) -> list[tuple[int, float]]:
    # Normalized Krawtchouk values K~_d(x; P/D, N), d = 0..top (default N),
    # for integers 0 <= x <= N and 0 < P < D, as pairs (exact sign,
    # magnitude). With R = D - P and A = _hyp2f1_rational(x, N, D, P, top),
    # whose A[d] / (P^d N!/(N-d)!) is K_d(x) = 2F1(-d, -x; -N; D/P),
    #   K~_d(x)^2 = C(N,x) P^x R^(N-x) A[d]^2 / (D^N (PR)^d d! N!/(N-d)!),
    # one exact integer ratio per degree: the numerator is fixed apart from
    # A[d]^2 and the denominator grows by PR(d+1)(N-d) per step. Python's
    # int / int is correctly rounded, so any form of the same ratio gives
    # the same float (|K~| <= 1, so it cannot overflow); the magnitude is its
    # square root. The sign is that of A[d]; an exact zero is (0, 0.0).
    R = D - P
    A = _hyp2f1_rational(x, N, D, P, top)
    num, den, step = math.comb(N, x) * P**x * R**(N - x), D**N, P * R
    values = []
    for d, a in enumerate(A):
        values.append(((a > 0) - (a < 0), math.sqrt(num * a * a / den)) if a else (0, 0.0))
        den *= step * (d + 1) * (N - d)
    return values
