"""Discrete orthogonal polynomial tables and terminating hypergeometric sums.

Provides the orthonormal Krawtchouk and dual Hahn tables, the exact integer
2F1 recurrence of the closed routes and the exact normalized Krawtchouk
values built on it, and the even paraboson wave function, whose magnitude
is assembled in log space. Orthonormal tables are produced from the
symmetric Jacobi (three-term recurrence) matrix of each family, whose
eigenvectors are the normalized polynomial values on the grid. A full table
comes from one eigensolve; its leading columns alone come from inverse
iteration at the lattice eigenvalues, which both families know exactly:
lambda(x) = x (Krawtchouk) and x(x+gamma+delta+1) (dual Hahn), in O(N) per
column. Column signs follow one rule for both sources. Column 0 is
positive, as every polynomial of both families is 1 at the first lattice
point. For the true table T,
T^T diag(0, 1, ..., N) T is the dual family's Jacobi matrix, whose
off-diagonal is negative, so each link t_x^T diag(n) t_{x+1} fixes the sign
of column x+1 relative to column x, all links in one vectorized pass. A link
below the floor starts a new chain, whose first column takes the Sturm
count: the sign of its largest entry is the parity of the negative LDL^T
pivots of the shifted leading Jacobi block, evaluated in floats for all such
columns at once. The (p, N-1) Krawtchouk table also follows from the
(p, N) eigenvectors by the forward shift, with no second eigensolve.
Internally both Krawtchouk builders take the pair (p, q), q = 1 - p, so a
caller that knows 1 - p more exactly than the float 1.0 - p can pass it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstein

__all__ = [
    "krawtchouk_normalized",
    "krawtchouk_table",
    "krawtchouk_shift_table",
    "dual_hahn_table",
    "paraboson_even_wavefunction",
]

# Neighbour links below this are considered sign-unreliable (solver noise is
# at most 4e-11 in a Krawtchouk link at N = 2000; genuine links we accept
# are >= 1e-8). The column after such a link gets its sign from the Sturm
# count.
_LINK_FLOOR = 1e-8
# Tables kept per cache; a model reads one eigensolved and one shifted
# Krawtchouk table.
_CACHE_SIZE = 64


# The input rule of every entry point, one helper per kind of input, each
# returning the checked value. Every row read runs them: ABC isinstance checks
# in place of class identity and operator.index would cost it a fifth.
def _integer(value, name: str, least: int = 0, most: int | None = None) -> int:
    # An int or numpy integer (not bool, not 2.0) in least..most, unbounded
    # above when most is None.
    try:
        if value.__class__ is bool:
            raise TypeError
        checked = operator.index(value)
    except TypeError:
        raise ValueError(f"need an integer {name}, got {name}={value!r}") from None
    if checked < least:
        raise ValueError(f"need {name} >= {least}, got {name}={checked}")
    if most is not None and checked > most:
        raise ValueError(f"need {name} <= {most}, got {name}={checked}")
    return checked


def _probability(p) -> float:
    # A real p inside (0, 1) as a float; bool and "0.5" are refused.
    try:
        if p.__class__ is not bool and 0.0 < p < 1.0:
            return float(p)
    except TypeError:
        pass
    raise ValueError(f"need 0 < p < 1, got p={p!r}")


def _finite(value, name: str, above: float | None = None) -> float:
    # A finite real, greater than `above` unless None, as a float; "1.0" is
    # refused.
    try:
        if math.isfinite(value) and (above is None or value > above):
            return float(value)
    except TypeError:
        pass
    bound = "" if above is None else f" > {above}"
    raise ValueError(f"need a finite {name}{bound}, got {name}={value!r}")


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


def _neighbour_links(vecs: np.ndarray) -> np.ndarray:
    # t_x^T diag(0, 1, ..., N) t_{x+1} for the neighbouring columns x, x+1 of
    # the eigenvector matrix: the off-diagonal of the dual family's Jacobi
    # matrix T^T diag(n) T, up to the columns' signs. One einsum loop forms
    # all N links with no N x N temporary.
    return np.einsum("n,nx,nx->x", np.arange(len(vecs), dtype=float),
                     vecs[:, :-1], vecs[:, 1:])


def _jacobi_table(diag: np.ndarray, off: np.ndarray, sign,
                  lam: np.ndarray | None = None) -> np.ndarray:
    # Orthonormal table of a family whose symmetric Jacobi matrix has
    # diagonal diag and negative off-diagonal off: column x of the
    # eigenvector matrix carries the normalized polynomials at the x-th
    # lattice point, up to an overall sign. With lam, the exact eigenvalues
    # of lattice points 0..m-1 in increasing order, only those m columns are
    # built, by inverse iteration (LAPACK dstein) in O(mN); otherwise the
    # whole table is eigensolved. Column 0 is positive, so its largest entry
    # (>= 1/sqrt(N+1)) signs it. Each link at or above the floor signs column
    # x+1 from column x, as the true dual off-diagonal is negative:
    # flip[x] flip[x+1] link[x] < 0. The column after a link below the floor
    # starts a new chain: sign(diag, off, x, ns) (the Sturm count) gives the
    # true sign of its largest entry ns, relative to row 0.
    if lam is None:
        _, vecs = eigh_tridiagonal(diag, off)
    else:
        # One unreduced block: off < 0 has no zero entry.
        size = len(diag)
        vecs, info = dstein(diag, off, lam, np.ones(size, dtype=np.int32),
                            np.full(size, size, dtype=np.int32))
        if info:
            raise np.linalg.LinAlgError(f"inverse iteration failed, dstein info={info}")
    link = _neighbour_links(vecs)
    sign0 = -1.0 if vecs[np.argmax(np.abs(vecs[:, 0])), 0] < 0 else 1.0
    # copysign keeps each step +-1 even where a link is 0, below the floor.
    flip = np.concatenate(([sign0], np.copysign(1.0, -link))).cumprod()
    broken = np.abs(link) < _LINK_FLOOR
    if broken.any():
        heads = np.nonzero(broken)[0] + 1
        # The fancy index copies, so its abs can be taken in place.
        block = vecs[:, heads]
        ns = np.argmax(np.abs(block, out=block), axis=0)
        true_sign = sign(diag, off, heads, ns)
        # Per chain, the true sign of its head over the one the links gave it.
        fix = np.where(vecs[ns, heads] * flip[heads] > 0, true_sign, -true_sign)
        flip *= np.concatenate(([1.0], fix))[np.concatenate(([0], np.cumsum(broken)))]
    vecs *= flip[None, :]
    vecs.flags.writeable = False
    return vecs


def _krawtchouk_sign(diag: np.ndarray, off: np.ndarray, x: np.ndarray,
                     ns: np.ndarray) -> np.ndarray:
    # True sign of K~_ns(x; p, N), on the lattice eigenvalue lambda(x) = x.
    return _sturm_sign(diag, off, x.astype(float), ns)


def _krawtchouk_jacobi(p: float, q: float, N: int) -> tuple[np.ndarray, np.ndarray, object]:
    # Jacobi matrix (diag, off) of the (p, N) Krawtchouk family, q = 1 - p,
    # and its sign hook. Its eigenvalue at lattice point x is x.
    n = np.arange(N, dtype=float)
    nn = np.arange(N + 1, dtype=float)
    diag = p * (N - nn) + nn * q
    off = -np.sqrt(p * q * (n + 1.0) * (N - n))
    return diag, off, _krawtchouk_sign


@lru_cache(maxsize=_CACHE_SIZE)
def _krawtchouk_table(p: float, q: float, N: int) -> np.ndarray:
    # q stands for 1 - p. The Fourier overlaps pass p = 4s(1-s) with
    # q = (1-2s)^2, where the float 1.0 - p loses up to 1.7e-8 near s = 1/2.
    return _jacobi_table(*_krawtchouk_jacobi(p, q, N))


def krawtchouk_table(p: float, N: int) -> np.ndarray:
    """Orthonormal Krawtchouk table T[n, x] = K~_n(x; p, N), 0 <= n, x <= N.

    The table is an orthogonal (N+1)x(N+1) matrix, symmetric in (n, x).
    Returned arrays are cached and marked read-only; copy before mutating.

    Entries carry the eigensolver's absolute error of about 1e-16. Where the
    true value is below that (row 0 is sqrt(w(x)), which reaches 1e-95 at
    p = 1e-12, N = 150), neither its sign nor its magnitude is reliable: such
    row-0 entries can come out negative, e.g. -3.8e-95 there.
    """
    N, p = _integer(N, "N"), _probability(p)
    return _krawtchouk_table(p, 1.0 - p, N)


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
    signs (tested for N <= 2000, p from 1e-12 to 1 - 1e-12). Defined for
    N >= 0: at N = 0 the (p, -1) family is empty and so is the table, 0x0.
    Cached and read-only like :func:`krawtchouk_table`.
    """
    N, p = _integer(N, "N"), _probability(p)
    return _krawtchouk_shift_table(p, 1.0 - p, N)


def krawtchouk_normalized(n: int, x: int, p: float, N: int) -> float:
    """Orthonormal Krawtchouk function K~_n(x) = sqrt(w(x)/h(n)) K_n(x)."""
    N = _integer(N, "N")
    n, x = _integer(n, "n", 0, N), _integer(x, "x", 0, N)
    return float(krawtchouk_table(p, N)[n, x])


def _dual_hahn_sign(diag: np.ndarray, off: np.ndarray, x: np.ndarray,
                    ns: np.ndarray, shift: float) -> np.ndarray:
    # True sign of R~_ns(lambda(x)), on lambda(x) = x(x + shift) with
    # shift = gamma + delta + 1.
    return _sturm_sign(diag, off, x * (x + shift), ns)


def _dual_hahn_jacobi(gamma: float, delta: float,
                      N: int) -> tuple[np.ndarray, np.ndarray, object]:
    # Jacobi matrix (diag, off) of the (gamma, delta, N) dual Hahn family and
    # its sign hook. Its eigenvalue at lattice point x is x(x + gamma + delta + 1).
    n = np.arange(N, dtype=float)
    nn = np.arange(N + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        diag = (nn + gamma + 1) * (N - nn) + nn * (delta + N - nn + 1)
        off = -np.sqrt((n + 1) * (n + gamma + 1) * (N - n) * (N - n + delta))
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError(f"gamma={gamma} and delta={delta} overflow the dual Hahn "
                         f"recurrence coefficients at N={N}")
    return diag, off, partial(_dual_hahn_sign, shift=gamma + delta + 1.0)


@lru_cache(maxsize=_CACHE_SIZE)
def _dual_hahn_table(gamma: float, delta: float, N: int) -> np.ndarray:
    return _jacobi_table(*_dual_hahn_jacobi(gamma, delta, N))


def dual_hahn_table(gamma: float, delta: float, N: int) -> np.ndarray:
    """Orthonormal dual Hahn table T[n, x] = R~_n(lambda(x)), 0 <= n, x <= N.

    Rows are indexed by degree, columns by the lattice point x of
    lambda(x) = x(x+gamma+delta+1) in increasing order. The table is an
    orthogonal matrix; cached and read-only like :func:`krawtchouk_table`.
    """
    N = _integer(N, "N")
    return _dual_hahn_table(_finite(gamma, "gamma", -1), _finite(delta, "delta", -1), N)


@lru_cache(maxsize=_CACHE_SIZE)
def _leading_columns(family: str, a: float, b: float, N: int, m: int) -> np.ndarray:
    # Columns 0..m-1, m <= N+1, of the Krawtchouk table, (a, b) = (p, q), or of
    # the dual Hahn table, (a, b) = (gamma, delta), by inverse iteration at
    # their exact eigenvalues: O(mN) time and memory, where the full table
    # costs O(N^2). Signed by the full table's rule, and cached and read-only
    # like it.
    x = np.arange(m, dtype=float)
    if family == "krawtchouk":
        jacobi, lam = _krawtchouk_jacobi(a, b, N), x
    else:
        jacobi, lam = _dual_hahn_jacobi(a, b, N), x * (x + a + b + 1.0)
    try:
        return _jacobi_table(*jacobi, lam)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{family} columns 0..{m - 1} at N={N}, "
                         f"parameters ({a!r}, {b!r}): {exc}") from None


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
    n, c, x = _integer(n, "n"), _finite(c, "c", 0), _finite(x, "x")
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
