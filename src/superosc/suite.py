"""Full invariant suite across a (j, p) sweep, used by the verify command.

Collects every library-level invariant into one report: algebra and star
relations, eigen-equations for both observables, Fourier matrix properties
by both routes, wave-function normalization, parity, node counts and route
agreement, oracle cross-checks, orthogonality of the polynomial tables,
endpoint limits, shift identities and the paraboson limits.

One deliberate nuance: V as constructed satisfies M_p conj(V) = conj(V) D,
not M_p V = V D - the row phases +-i select the conjugate. The suite
verifies the diagonalization through the conjugated form (together with
unitarity, V = U F, and the anti-diagonal Gram identity), so a passing run
means the momentum eigensystem is genuinely correct. V = U F holds V's
row phases against the entry-wise Fourier matrix, which never reads them.
"""

from __future__ import annotations

import math

import numpy as np

from . import representation
from .fourier import (
    _eigensystem_report,
    _S_table,
    apply_fourier,
    fourier_analytic,
    fourier_spectral,
)
from .oracle import hermitian_tridiag_eigenvalues, tridiag_eigen
from .oscillator import (
    ModelParams,
    analytic_U,
    analytic_V,
    hamiltonian_matrix,
    limit_U,
    momentum_matrix,
    position_matrix,
    position_spectrum,
    sign_variant,
)
from .report import _DEFAULT_TOL, VerificationReport, _largest
from .specfun import (
    _finite,
    _hyp2f1_rational,
    _integer,
    _probability,
    dual_hahn_table,
    krawtchouk_shift_table,
    krawtchouk_table,
)
from .wavefunctions import node_count, paraboson_limit_table, position_wavefunction_closed

__all__ = ["run_suite", "DEFAULT_P_LIST"]

DEFAULT_P_LIST = (0.1, 0.3, 0.5, 0.7, 0.9)

# Largest j whose sweep runs the closed-route and node-count checks. The
# closed rows no longer dominate runtime; the cap fixes which checks
# `verify --j-max` reports above 12.
_CLOSED_ROUTE_J_CAP = 12


def _sweep_checks(report: VerificationReport, j: int, p: float, tol: float) -> None:
    params = ModelParams(j, p)
    dim = params.dim
    label = f"j={j} p={p}"
    spectrum = position_spectrum(j)
    u = analytic_U(params)
    v = analytic_V(params)
    band = position_matrix(params)
    mq = band.dense()
    mp = momentum_matrix(params)
    identity = np.eye(dim)

    assembled = (math.sqrt(p) * representation.generator_matrix("F+", j)
                 + math.sqrt(1 - p) * representation.generator_matrix("G+", j)
                 - math.sqrt(1 - p) * representation.generator_matrix("F-", j)
                 - math.sqrt(p) * representation.generator_matrix("G-", j))
    report.add(f"{label} position assembly consistency",
               _largest(mq - assembled), 1e-12)

    report.add(f"{label} position eigen-equation",
               _largest(mq @ u - u * spectrum[None, :]), tol)
    report.add(f"{label} position eigenvectors orthogonal",
               _largest(u.T @ u - identity), tol)

    report.add(f"{label} momentum eigen-equation (conjugated)",
               _largest(mp @ v.conj() - v.conj() * spectrum[None, :]), tol)
    report.add(f"{label} momentum eigenvectors unitary",
               _largest(v.conj().T @ v - identity), tol)
    transform, spectral = fourier_analytic(params), fourier_spectral(params)
    report.add(f"{label} V = U F",
               _largest(v - apply_fourier(u, transform)), tol)
    report.add(f"{label} V^T V anti-diagonal",
               _largest(v.T @ v + np.eye(dim)[::-1]), tol)

    # H is diagonal: H A - A H scales A's rows and columns by its diagonal.
    h = np.diagonal(hamiltonian_matrix(j))
    report.add(f"{label} Heisenberg position equation",
               _largest(h[:, None] * mq - mq * h[None, :] + 1j * mp), tol)
    report.add(f"{label} Heisenberg momentum equation",
               _largest(h[:, None] * mp - mp * h[None, :] - 1j * mq), tol)

    variant, u_variant = sign_variant(params)
    report.add(f"{label} sign variant eigen-equation",
               _largest(variant.dense() @ u_variant - u_variant * spectrum[None, :]), tol)

    fourier_report, _ = _eigensystem_report(params, tol, transform, spectral)
    report.extend(fourier_report)

    table = krawtchouk_table(p, j)
    report.add(f"{label} Krawtchouk table orthogonal",
               _largest(table @ table.T - np.eye(j + 1)), tol)
    # U's odd rows read the forward shift of the (p, j) eigenvectors; the
    # eigensolved (p, j-1) table is the independent route.
    report.add(f"{label} odd-row table: forward shift vs eigensolved (p, j-1)",
               _largest(krawtchouk_shift_table(p, j) - krawtchouk_table(p, j - 1)), tol)

    report.add(f"{label} wave function normalization",
               _largest(np.sum(u * u, axis=1) - 1.0), 1e-12)
    # Even rows are mirror-symmetric, odd rows antisymmetric.
    report.add(f"{label} wave function parity",
               _largest(u[0::2] - u[0::2, ::-1], u[1::2] + u[1::2, ::-1]), 0.0)

    if j <= _CLOSED_ROUTE_J_CAP:
        closed = np.array([position_wavefunction_closed(params, level) for level in range(dim)])
        node_misses = sum(node_count(params, level) != level for level in range(dim))
        report.add(f"{label} closed-form route agreement", _largest(closed - u), tol)
        report.add(f"{label} node counts", float(node_misses), 0.0)
        # The overlaps fourier_analytic reads, against the exact integer
        # route: both the (p, j) and the (p, j-1) table.
        report.add(f"{label} S exact vs Krawtchouk(4p(1-p))",
                   _largest(transform.even - _S_table(p, j), transform.odd - _S_table(p, j - 1)),
                   tol)
        # The spectral route's dense matrix against U^T J U = U^T V formed
        # densely: route agreement cannot see a fault in the layout both
        # routes share.
        report.add(f"{label} spectral transform = U^T J U",
                   _largest(spectral.data - u.T @ v), tol)

    oracle_q = tridiag_eigen(band.offdiag, np.zeros(dim))
    report.add(f"{label} oracle position eigenvalues",
               _largest(oracle_q.eigenvalues - spectrum), 1e-9)
    aligned = oracle_q.eigenvectors * np.where(
        np.sum(oracle_q.eigenvectors * u, axis=0) < 0, -1.0, 1.0)[None, :]
    report.add(f"{label} oracle eigenvectors vs analytic",
               _largest(aligned - u), 1e-8)
    report.add(f"{label} oracle momentum eigenvalues",
               _largest(hermitian_tridiag_eigenvalues(mp) - spectrum), 1e-9)


def _shift_misses(a: int, b: int, j: int, second: bool) -> int:
    # Misses of the forward shift identity of the Krawtchouk polynomials
    # (Koekoek, Lesky & Swarttouw, section 9.11) at p = a/b, plus those of the
    # second shift identity if `second`, on the integer 2F1 recurrence that
    # the closed rows and exact overlaps read:
    # K_k(x; p, N) = A_x[k] / (a^k N!/(N-k)!) for A_x = _hyp2f1_rational(x, N, b, a).
    # Each identity is multiplied through by its integer scales, so both sides
    # are compared as integers.
    upper = [_hyp2f1_rational(x, j, b, a) for x in range(j + 1)]
    lower = [_hyp2f1_rational(x, j - 1, b, a) for x in range(j)]
    misses = 0
    for k in range(1, j + 1):
        scale = a**k * math.perm(j, k)
        lower_scale = a ** (k - 1) * math.perm(j - 1, k - 1)
        # a j (K_k(n+1) - K_k(n)) = -k b K_{k-1}(n; j-1)
        for n in range(j):
            misses += (a * j * (upper[n + 1][k] - upper[n][k]) * lower_scale
                       != -k * b * lower[n][k - 1] * scale)
        if not second:
            continue
        # a (j-n) K_{k-1}(n; j-1) - n (b-a) K_{k-1}(n-1; j-1) = a j K_k(n);
        # the shifted values off the grid n <= j-1 have zero coefficients.
        for n in range(j + 1):
            up = lower[n][k - 1] if n < j else 0
            down = lower[n - 1][k - 1] if n else 0
            misses += ((a * (j - n) * up - n * (b - a) * down) * scale
                       != a * j * upper[n][k] * lower_scale)
    return misses


def _fixed_checks(report: VerificationReport, tol: float) -> None:
    for j in range(0, 11):
        algebra = representation.verify_superalgebra(j)
        report.add(f"j={j} superalgebra relations", algebra.max_residual, 1e-12)
        star = representation.verify_star(j)
        report.add(f"j={j} star conditions", star.max_residual, 1e-12)

    for j in range(0, 7):
        toward_zero = limit_U(j, "toward-zero")
        # analytic_U approaches the limit at rate sqrt(p): 1e-6 sqrt(j) here.
        report.add(f"j={j} p->0 limit convergence (p=1e-12)",
                   _largest(analytic_U(ModelParams(j, 1e-12)) - toward_zero),
                   1e-5)
        report.add(f"j={j} p->0 limit orthogonal",
                   _largest(toward_zero.T @ toward_zero - np.eye(2 * j + 1)),
                   1e-12)
        toward_one = limit_U(j, "toward-one")
        report.add(f"j={j} p->1 limit convergence (p=1-1e-12)",
                   _largest(analytic_U(ModelParams(j, 1 - 1e-12)) - toward_one),
                   1e-5)
        report.add(f"j={j} p->1 limit orthogonal",
                   _largest(toward_one.T @ toward_one - np.eye(2 * j + 1)),
                   1e-12)

    exact_misses = sum(_shift_misses(a, b, j, second=True)
                       for a, b in ((1, 3), (1, 2), (7, 10)) for j in range(1, 9))
    report.add("shift identities exact (j <= 8)", float(exact_misses), 0.0)
    recurrence_misses = sum(_shift_misses(a, b, j, second=False)
                            for a, b in ((1, 10), (1, 2), (9, 10)) for j in (17, 30))
    report.add("forward shift identity, integer recurrence (j <= 30)",
               float(recurrence_misses), 0.0)

    for gamma, delta in ((0.5, 0.5), (3.0, 7.0)):
        table = dual_hahn_table(gamma, delta, 40)
        report.add(f"dual Hahn table orthogonal (gamma={gamma}, delta={delta}, N=40)",
                   _largest(table @ table.T - np.eye(41)), tol)

    alpha, j_limit, p_half = 1e6, 20, 0.5
    gamma, delta = 2 * p_half * alpha, 2 * (1 - p_half) * alpha
    gap = _largest(dual_hahn_table(gamma, delta, j_limit) - krawtchouk_table(p_half, j_limit))
    report.add("large-alpha dual Hahn -> Krawtchouk (alpha=1e6, j=20)", gap, 1e-4)

    alpha = 10.0
    errors = []
    for j_big in (200, 400):
        tables = [paraboson_limit_table(j_big, 0.5, alpha, n, 15) for n in (0, 1, 2)]
        errors.append(_largest(*(rows[:, 1] - rows[:, 2] for rows in tables)))
    report.add("paraboson comparison error decreases (j=200 -> 400)",
               0.0 if errors[1] < errors[0] else 1.0, 0.0)


def run_suite(j_max: int = 10, p_list: tuple[float, ...] = DEFAULT_P_LIST,
              tol: float = _DEFAULT_TOL) -> VerificationReport:
    """Run every invariant check over j = 1..j_max and the given p values.

    ``tol`` is the base tolerance for matrix residuals; checks with
    stricter intrinsic accuracy (algebra relations, normalization,
    exact-arithmetic identities) keep their own tighter bounds.
    """
    j_max = _integer(j_max, "j_max", 1)
    if not p_list:
        raise ValueError("need at least one p in p_list")
    tol = _finite(tol, "tol", 0)
    p_list = [_probability(p) for p in p_list]
    report = VerificationReport()
    for p in p_list:
        for j in range(1, j_max + 1):
            _sweep_checks(report, j, p, tol)
    _fixed_checks(report, tol)
    return report
