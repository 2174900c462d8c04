"""Acceptance criteria, one test per criterion, one verdict line each.

Each test computes its worst-case residual over the stated sweep, prints a
single summary line, then asserts the stated tolerance. Criterion 3 asserts
the momentum eigen-equation in its conjugated form, M_p conj(V) = conj(V) D,
which is the package's documented convention (README, the suite, and
``analytic_V``). With V = J U and J = -i diag(i^r), conjugation by J gives
J* M_p J = -M_q, so M_p V = -V D: the literal M_p V = V D cannot hold while
V = J U and the Heisenberg signs of criterion 6 do. The conjugated form is as
strict: negating the momentum matrix or conjugating the row phases of V makes
its residual of order one.
"""

import json
import math
import time

import numpy as np

from superosc import (
    J_matrix,
    ModelParams,
    analytic_U,
    analytic_V,
    expected_multiplicities,
    fourier_analytic,
    fourier_spectral,
    hamiltonian_matrix,
    hermitian_tridiag_eigen,
    limit_U,
    momentum_matrix,
    node_count,
    position_matrix,
    position_spectrum,
    position_wavefunction_closed,
    tridiag_eigen,
    verify_star,
    verify_superalgebra,
)
from superosc.cli import main
from superosc.specfun import (
    dual_hahn_table,
    krawtchouk_normalized,
    paraboson_even_wavefunction,
)
from superosc.wavefunctions import paraboson_limit_table

P_SWEEP = (0.1, 0.3, 0.5, 0.7, 0.9)


def _worst(*residuals):
    # The largest residual, NaN if any is NaN. Python's max drops a NaN that
    # is not first, so a NaN residual would read as the previous worst.
    return float(np.max(residuals))


def _spectrum_residual(eigenvalues, j):
    return float(np.max(np.abs(eigenvalues - position_spectrum(j))))


def test_criterion_1_oracle_spectra_match_sqrt_grid():
    t0 = time.perf_counter()
    worst = 0.0
    for j in range(1, 31):
        dim = 2 * j + 1
        for p in P_SWEEP:
            params = ModelParams(j=j, p=p)
            oracle_q = tridiag_eigen(position_matrix(params).offdiag, np.zeros(dim))
            worst = _worst(worst, _spectrum_residual(oracle_q.eigenvalues, j))
            oracle_p = hermitian_tridiag_eigen(momentum_matrix(params)).eigenvalues
            worst = _worst(worst, _spectrum_residual(oracle_p, j))
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: eigenvalue residual {worst:.3e} (tol 1e-9), {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_2_position_eigensystem_to_j60():
    t0 = time.perf_counter()
    worst_eig = worst_orth = 0.0
    for j in range(1, 61):
        d = position_spectrum(j)
        eye = np.eye(2 * j + 1)
        for p in P_SWEEP:
            params = ModelParams(j=j, p=p)
            mq = position_matrix(params).dense()
            u = analytic_U(params)
            worst_eig = _worst(worst_eig, float(np.abs(mq @ u - u * d[None, :]).max()))
            worst_orth = _worst(worst_orth, float(np.abs(u.T @ u - eye).max()))
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: eigen-equation {worst_eig:.3e}, orthogonality "
          f"{worst_orth:.3e} (tol 1e-10), {elapsed:.2f}s")
    assert worst_eig <= 1e-10
    assert worst_orth <= 1e-10
    assert elapsed < 10.0


def test_criterion_3_momentum_eigensystem():
    worst = {"eigen-equation (conjugated)": 0.0, "unitarity": 0.0, "V = JU": 0.0,
             "antidiagonal": 0.0}
    for j in range(1, 31):
        dim = 2 * j + 1
        d = position_spectrum(j)
        eye = np.eye(dim)
        anti = np.zeros((dim, dim))
        anti[np.arange(dim), np.arange(dim)[::-1]] = -1.0
        for p in P_SWEEP:
            params = ModelParams(j=j, p=p)
            mp = momentum_matrix(params)
            u = analytic_U(params)
            v = analytic_V(params)
            vc = v.conj()
            worst["eigen-equation (conjugated)"] = _worst(
                worst["eigen-equation (conjugated)"],
                float(np.abs(mp @ vc - vc * d[None, :]).max()))
            worst["unitarity"] = _worst(
                worst["unitarity"], float(np.abs(v.conj().T @ v - eye).max()))
            worst["V = JU"] = _worst(
                worst["V = JU"], float(np.abs(v - J_matrix(j) @ u).max()))
            worst["antidiagonal"] = _worst(
                worst["antidiagonal"], float(np.abs(v.T @ v - anti).max()))
    print("criterion 3 (tol 1e-10): "
          + ", ".join(f"{k} {v:.3e}" for k, v in worst.items()))
    for name, value in worst.items():
        assert value <= 1e-10, f"{name}: {value:.3e}"


def test_criterion_4_fourier_matrix_properties():
    worst = 0.0
    for j in range(0, 41):
        eye = np.eye(2 * j + 1)
        for p in (0.3, 0.7):
            params = ModelParams(j=j, p=p)
            analytic = np.asarray(fourier_analytic(params))
            spectral = np.asarray(fourier_spectral(params))
            worst = _worst(worst, float(np.abs(analytic - spectral).max()))
            for f in (analytic, spectral):
                worst = _worst(worst, float(np.abs(f - f.T).max()))
                worst = _worst(worst, float(np.abs(f.conj().T @ f - eye).max()))
                f2 = f @ f
                worst = _worst(worst, float(np.abs(f2 @ f2 - eye).max()))
        eigs = np.linalg.eigvals(np.asarray(fourier_analytic(ModelParams(j=j, p=0.3))))
        counts = tuple(int(np.sum(np.abs(eigs - root) < 1e-6))
                       for root in (-1j, 1.0, 1j, -1.0))
        assert counts == tuple(expected_multiplicities(j)), f"j={j}: {counts}"
    print(f"criterion 4: matrix-property residual {worst:.3e} (tol 1e-10), "
          "multiplicities exact to j=40")
    assert worst <= 1e-10


def test_criterion_5_doubled_matrix_j3_half():
    s2 = math.sqrt(2.0)
    expected = np.array([
        [0, 0, 1, -1j * s2, -1, 0, 0],
        [0, 1, -1j, 0, -1j, -1, 0],
        [1, -1j, 0, 0, 0, -1j, -1],
        [-1j * s2, 0, 0, 0, 0, 0, -1j * s2],
        [-1, -1j, 0, 0, 0, -1j, 1],
        [0, -1, -1j, 0, -1j, 1, 0],
        [0, 0, -1, -1j * s2, 1, 0, 0],
    ])
    got = 2 * np.asarray(fourier_analytic(ModelParams(j=3, p=0.5)))
    residual = float(np.abs(got - expected).max())
    print(f"criterion 5: doubled-matrix residual {residual:.3e} (tol 1e-12)")
    assert residual <= 1e-12


def test_criterion_6_superalgebra_and_heisenberg():
    worst_algebra = 0.0
    for j in range(11):
        report = verify_superalgebra(j, tol=1e-12)
        assert report.passed, report.failures()
        star = verify_star(j, tol=1e-12)
        assert star.passed, star.failures()
        worst_algebra = _worst(worst_algebra, report.max_residual, star.max_residual)
    worst_heisenberg = 0.0
    for j in range(11):
        h = hamiltonian_matrix(j)
        for p in P_SWEEP:
            params = ModelParams(j=j, p=p)
            mq = position_matrix(params).dense()
            mp = momentum_matrix(params)
            worst_heisenberg = _worst(
                worst_heisenberg,
                float(np.abs(h @ mq - mq @ h + 1j * mp).max()),
                float(np.abs(h @ mp - mp @ h - 1j * mq).max()),
            )
    print(f"criterion 6: algebra residual {worst_algebra:.3e} (tol 1e-12), "
          f"Heisenberg residual {worst_heisenberg:.3e} (tol 1e-10)")
    assert worst_algebra <= 1e-12
    assert worst_heisenberg <= 1e-10


def test_criterion_7_wavefunction_properties():
    worst_norm = worst_closed = 0.0
    for j in range(1, 31):
        for p in (0.3, 0.5, 0.7):
            params = ModelParams(j=j, p=p)
            u = analytic_U(params)
            worst_norm = _worst(
                worst_norm, float(np.abs(np.sum(u * u, axis=1) - 1.0).max()))
            for level in range(2 * j + 1):
                row = u[level, :]
                mirrored = row[::-1] if level % 2 == 0 else -row[::-1]
                assert np.array_equal(row, mirrored), f"parity off at j={j}"
            for level in range(2 * j + 1):
                closed = position_wavefunction_closed(params, level)
                worst_closed = _worst(
                    worst_closed, float(np.abs(closed - u[level, :]).max()))
                assert node_count(params, level) == level
    print(f"criterion 7: normalization {worst_norm:.3e} (tol 1e-12), "
          f"closed-route {worst_closed:.3e} (tol 1e-10), node counts exact")
    assert worst_norm <= 1e-12
    assert worst_closed <= 1e-10


def test_criterion_8_limits(tmp_path):
    alpha, j, p = 1e6, 20, 0.5
    gamma, delta = 2 * p * alpha, 2 * (1 - p) * alpha
    gap = _worst(*(
        abs(dual_hahn_table(gamma, delta, j)[n, k] - krawtchouk_normalized(n, k, p, j))
        for n in range(j + 1) for k in range(j + 1)
    ))
    errors = []
    for j_big in (200, 400):
        worst = 0.0
        for n in (0, 1, 2):
            rows = paraboson_limit_table(j_big, 0.5, 10.0, n, 15)
            worst = _worst(worst, float(np.abs(rows[:, 1] - rows[:, 2]).max()))
        errors.append(worst)

    # emitted figure-data tables, spot-checked for parity, a nodeless ground
    # level, and decay away from the center
    target = tmp_path / "tables.json"
    assert main(["wavefunction", "--j", "10", "--p", "0.5", "--n", "0,1,2,3",
                 "--format", "json", "--output", str(target)]) == 0
    tables = json.loads(target.read_text())
    assert len(tables) == 4
    for t in tables:
        amps = np.array(t["amplitude"])
        mirrored = amps[::-1] if t["n"] % 2 == 0 else -amps[::-1]
        assert np.array_equal(amps, mirrored)
    ground = np.array(tables[0]["amplitude"])
    assert (ground > 0).all()
    assert abs(ground[0]) < 0.1 * np.abs(ground).max()
    assert abs(ground[-1]) < 0.1 * np.abs(ground).max()

    print(f"criterion 8: large-alpha gap {gap:.3e} (tol 1e-4), comparison error "
          f"{errors[0]:.3e} -> {errors[1]:.3e} (must decrease), tables spot-checked")
    assert gap <= 1e-4
    assert errors[1] < errors[0]


def test_criterion_9_endpoint_limit_pattern():
    worst_pattern = worst_orth = 0.0
    inv2 = 1.0 / math.sqrt(2.0)
    for j in range(7):
        dim = 2 * j + 1
        expected = np.zeros((dim, dim))
        expected[0, j] = 1.0
        for n in range(1, j + 1):
            expected[2 * n, j - n] = expected[2 * n, j + n] = inv2
        for n in range(j):
            expected[2 * n + 1, j - (n + 1)] = -inv2
            expected[2 * n + 1, j + (n + 1)] = inv2
        u0 = limit_U(j, "toward-zero")
        worst_pattern = _worst(worst_pattern, float(np.abs(u0 - expected).max()))
        worst_orth = _worst(worst_orth, float(np.abs(u0.T @ u0 - np.eye(dim)).max()))
    print(f"criterion 9: pattern residual {worst_pattern:.3e}, orthogonality "
          f"{worst_orth:.3e} (tol 1e-12)")
    assert worst_pattern <= 1e-12
    assert worst_orth <= 1e-12
