"""Discrete wave functions on the sqrt(k) grid and their limits.

A position wave function at level n is row n of the analytic position
eigenvector matrix read against the grid -sqrt(j)..sqrt(j); the momentum
wave function is the corresponding row of the unitary momentum eigenvector
matrix. Every row is independently recomputable from a closed 2F1 form:
exact normalized Krawtchouk values, each square formed as one integer
ratio and rounded once, which also yield exact sign sequences for node
counting. The large-j and large-parameter limits connect the discrete rows
to the even paraboson wave function through normalized dual Hahn functions
on a quadratic lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .oscillator import _INV_SQRT2, _QUARTER_TURNS, ModelParams, _level_row, position_spectrum
from .specfun import (
    _CACHE_SIZE,
    _finite,
    _integer,
    _krawtchouk_exact,
    _probability,
    _ratio,
    dual_hahn_table,
    krawtchouk_table,
    paraboson_even_wavefunction,
)

__all__ = [
    "WaveTable",
    "position_wavefunction",
    "position_wavefunction_closed",
    "momentum_wavefunction",
    "node_count",
    "paraboson_limit_table",
]

@dataclass(frozen=True)
class WaveTable:
    """One discrete wave function: grid points with their amplitudes.

    ``kind`` is "position" (real amplitudes) or "momentum" (complex);
    ``grid`` holds the 2j+1 points sign(k) sqrt(|k|) in ascending order and
    ``amplitudes`` the matching row entries, which form a unit vector. The
    displayed energy label is n + 1/2.
    """

    kind: str
    j: int
    p: float
    n: int
    grid: np.ndarray
    amplitudes: np.ndarray

    @property
    def energy(self) -> float:
        return self.n + 0.5


def _check_level(params: ModelParams, n: int) -> int:
    return _integer(n, "n", 0, 2 * params.j)


def position_wavefunction(params: ModelParams, n: int) -> WaveTable:
    """Level-n position wave function: row n of the position eigenvectors.

    The row is read from one column of one cached Krawtchouk table, (p, j)
    for even n and (p, j-1) for odd n, in O(j) once that table is cached;
    a cold call builds the table, O(j^2) memory. The (p, j-1) table is
    derived from the (p, j) one, so a cold row of either parity runs the
    one (p, j) eigensolve. The values are those of ``analytic_U(params)[n]``,
    bit for bit.
    """
    n = _check_level(params, n)
    return WaveTable("position", params.j, params.p, n,
                     position_spectrum(params.j), _level_row(params, n))


def momentum_wavefunction(params: ModelParams, n: int) -> WaveTable:
    """Level-n momentum wave function: row n of the momentum eigenvectors.

    The position row times its phase, read from one cached Krawtchouk table
    like :func:`position_wavefunction`: O(j) once the table is cached, one
    table build when cold. The values are those of
    ``analytic_V(params)[n]``, bit for bit.
    """
    n = _check_level(params, n)
    return WaveTable("momentum", params.j, params.p, n, position_spectrum(params.j),
                     _QUARTER_TURNS[n % 4] * _level_row(params, n))


@lru_cache(maxsize=_CACHE_SIZE)
def _closed_row(j: int, p: float, level: int) -> tuple[np.ndarray, tuple[int, ...]]:
    # Row `level` from its closed 2F1 form, read-only, together with the
    # exact sign of each entry (0 for exact zeros). Cached, so that
    # position_wavefunction_closed and node_count share one build. For
    # level 2n + odd, column j+k carries (-1)^n K~_m(n; p, N) / sqrt(2) with
    # m = k - odd over N = j - odd, and the even rows' center K~_0(n; p, j)
    # itself: one half-row of exact normalized Krawtchouk values at p = a/b,
    # whose signs come from the integers, immune to underflow. Odd rows are
    # antisymmetric with a zero center.
    dim = 2 * j + 1
    values = np.zeros(dim)
    signs = [0] * dim
    a, b = _ratio(p)
    n, odd = level // 2, level % 2
    s0, mirror = (-1) ** n, (-1) ** odd
    half = _krawtchouk_exact(n, j - odd, a, b)
    if not odd:
        values[j], signs[j] = s0 * half[0][1], s0
    for k in range(1, j + 1):
        sign, mag = half[k - odd]
        if sign == 0:
            continue
        sign *= s0
        value = sign * _INV_SQRT2 * mag
        values[j + k], values[j - k] = value, mirror * value
        signs[j + k], signs[j - k] = sign, mirror * sign
    values.flags.writeable = False
    return values, tuple(signs)


def position_wavefunction_closed(params: ModelParams, n: int) -> np.ndarray:
    """Closed-form route to the level-n position amplitudes.

    Built without the eigenvector matrix: each amplitude is an exact
    normalized Krawtchouk value, whose square is formed as one integer ratio
    from terminating 2F1 values, rounded once to a float and square rooted.
    Agrees with :func:`position_wavefunction` to the eigensolver's error.
    """
    n = _check_level(params, n)
    values, _ = _closed_row(params.j, params.p, n)
    return values.copy()


def node_count(params: ModelParams, n: int) -> int:
    """Number of sign changes of the level-n position wave function.

    Exact: signs are evaluated in exact integer arithmetic and entries that
    are exactly zero are skipped, so near-underflow tails cannot distort the
    count. Equals n across the grid.
    """
    n = _check_level(params, n)
    _, signs = _closed_row(params.j, params.p, n)
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def paraboson_limit_table(j: int, p: float, alpha: float, n: int,
                          grid_count: int) -> np.ndarray:
    """Compare the scaled discrete level-2n row with its paraboson limit.

    Returns an array of rows (x_k, discrete, continuum, limit_gap) for
    k = 1..grid_count, where x_k = sqrt(lambda(k)/j) on the quadratic
    lattice lambda(k) = k(k+2*alpha+1), the discrete value is
    (-1)^n/sqrt(2) j^(1/4) R~_n(lambda(k); 2p*alpha, 2(1-p)*alpha, j),
    the continuum value is the even paraboson wave function with parameter
    2p*alpha at x_k, and limit_gap = |R~_n - K~_n(k; p, j)| tracks the
    large-alpha collapse of the dual Hahn family onto the Krawtchouk one.

    Raises
    ------
    ValueError
        If the request exhausts the grid (grid_count > j), or alpha is not
        finite and positive.
    """
    j, p, alpha = _integer(j, "j", 1), _probability(p), _finite(alpha, "alpha", 0)
    n, grid_count = _integer(n, "n", 0, j), _integer(grid_count, "grid_count", 1, j)
    gamma, delta = 2.0 * p * alpha, 2.0 * (1.0 - p) * alpha
    k = np.arange(1, grid_count + 1)
    x = np.sqrt(k * (k + 2.0 * alpha + 1.0) / j)
    # Row n of each table at lattice points 1..grid_count.
    normalized = dual_hahn_table(gamma, delta, j)[n, 1:grid_count + 1]
    discrete = (-1.0) ** n * _INV_SQRT2 * j**0.25 * normalized
    continuum = [paraboson_even_wavefunction(n, gamma, x_k) for x_k in x.tolist()]
    gap = np.abs(normalized - krawtchouk_table(p, j)[n, 1:grid_count + 1])
    return np.column_stack((x, discrete, continuum, gap))
