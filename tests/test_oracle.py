import ast
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superosc.oracle as oracle
from superosc.oracle import (
    hermitian_tridiag_eigen,
    hermitian_tridiag_eigenvalues,
    krawtchouk_exact,
    tridiag_eigen,
)


def test_oracle_imports_nothing_from_the_package():
    # the referee must stay independent of the code it referees
    tree = ast.parse(Path(oracle.__file__).read_text())
    allowed = {"numpy", "math", "fractions", "dataclasses", "__future__"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in allowed, alias.name
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import found"
            assert node.module.split(".")[0] in allowed, node.module


def test_three_point_spectrum():
    p = 0.35
    res = tridiag_eigen([p ** 0.5, (1 - p) ** 0.5], [0.0, 0.0, 0.0])
    assert res.eigenvalues == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)


def test_diagonal_input_passes_through():
    res = tridiag_eigen([0.0, 0.0], [3.0, -1.0, 2.0])
    assert res.eigenvalues == pytest.approx([-1.0, 2.0, 3.0], abs=1e-15)
    # eigenvectors are signed unit columns in eigenvalue order
    perm = np.abs(res.eigenvectors)
    assert np.array_equal(perm, np.eye(3)[:, [1, 2, 0]])


def test_position_operator_spectrum_j10():
    from superosc import ModelParams, position_matrix

    off = position_matrix(ModelParams(j=10, p=0.3)).offdiag
    res = tridiag_eigen(off, np.zeros(21))
    expected = sorted(
        [-(k ** 0.5) for k in range(1, 11)] + [0.0] + [k ** 0.5 for k in range(1, 11)]
    )
    assert np.abs(res.eigenvalues - np.array(expected)).max() <= 1e-9


def test_result_carries_residual_and_iterations():
    res = tridiag_eigen([1.0, 2.0, 0.5], [0.2, -0.3, 0.4, 0.0])
    assert res.residual <= 1e-9
    assert res.iterations >= 0
    a = np.diag([0.2, -0.3, 0.4, 0.0]) + np.diag([1.0, 2.0, 0.5], 1) + np.diag([1.0, 2.0, 0.5], -1)
    x = res.eigenvectors
    assert np.abs(a @ x - x * res.eigenvalues[None, :]).max() <= 1e-9
    assert np.abs(x.T @ x - np.eye(4)).max() <= 1e-9


# A NaN compares false with tol, so a guard written `residual > tol` lets a
# NaN residual through; each guard must raise on one.
def test_nan_residual_raises(monkeypatch):
    product = oracle._sweep_product

    def one_nan(rotations, alternating):
        block = product(rotations, alternating).copy()
        block[0, 0] = np.nan
        return block

    monkeypatch.setattr(oracle, "_sweep_product", one_nan)
    with pytest.raises(RuntimeError):
        tridiag_eigen([1.0, 2.0, 0.5], [0.0, 0.3, 0.1, 0.0])


def test_nan_rephased_residual_raises(monkeypatch):
    solve = oracle.tridiag_eigen

    def one_nan(offdiag, diag, tol):
        base = solve(offdiag, diag, tol=tol)
        vectors = base.eigenvectors.copy()
        vectors[0, 0] = np.nan
        return oracle.EigenResult(base.eigenvalues, vectors, base.iterations, base.residual)

    monkeypatch.setattr(oracle, "tridiag_eigen", one_nan)
    off = np.array([1.0, 2.0j, 0.5])
    with pytest.raises(RuntimeError):
        hermitian_tridiag_eigen(np.diag(off, 1) + np.diag(off.conj(), -1))


def _rotations_one_at_a_time(cosines, sines):
    # the per-rotation column update that the block product replaces
    q = np.eye(len(cosines) + 1)
    for i in range(len(cosines) - 1, -1, -1):
        c, s = cosines[i], sines[i]
        col = q[:, i + 1].copy()
        q[:, i + 1] = s * q[:, i] + c * col
        q[:, i] = c * q[:, i] - s * col
    return q


@pytest.mark.parametrize("n", [1, 2, 5, 30])
def test_sweep_product_matches_rotations_one_at_a_time(n):
    rng = np.random.default_rng(n)
    angles = rng.uniform(-np.pi, np.pi, n)
    angles[n // 2] = 0.0          # s = 0 splits the product
    if n > 2:
        angles[-1] = np.pi / 2    # c = 0
    cosines, sines = np.cos(angles), np.sin(angles)
    rotations = []
    for c, s in zip(cosines[::-1], sines[::-1]):
        rotations += [c, s]
    k = np.arange(n + 3)
    alternating = np.tril((-1.0) ** np.subtract.outer(k, k))
    block = oracle._sweep_product(rotations, alternating)
    # entries agree to a few roundings each: n factors of size <= 1
    assert np.abs(block - _rotations_one_at_a_time(cosines, sines)).max() <= 4 * n * 2.0**-52
    assert np.abs(block.T @ block - np.eye(n + 1)).max() <= 4 * n * 2.0**-52


@pytest.mark.parametrize(
    "diag, off, expected",
    [
        # an underflowing entry between zero diagonals: a 0/0 rotation
        ([0.0] * 4, [1.687525367726854e-222, 1.0, 1.0], [-2**0.5, 0.0, 0.0, 2**0.5]),
        # two such entries: the lower block never deflated by the relative test
        ([0.0] * 4, [1.0, 1.687525367726854e-222, 1.0271065105174491e-267],
         [-1.0, 0.0, 0.0, 1.0]),
        # the bulge of a sweep underflows to 0/0 before the entries deflate
        ([0.0] * 4, [1.7e-222, 1.7e-222, 5.784962747638073e-97],
         [-5.784962747638073e-97, -1.7e-222, 1.7e-222, 5.784962747638073e-97]),
        # a matrix of subnormal norm: rotations in that range do not converge
        ([0.0, 0.0, 0.0], [2.225073858507e-311, 2.225073858507e-311],
         [-2**0.5 * 2.225073858507e-311, 0.0, 2**0.5 * 2.225073858507e-311]),
    ],
)
def test_underflowing_entries_deflate(diag, off, expected):
    res = tridiag_eigen(off, diag)
    expected = np.array(expected)
    assert np.abs(res.eigenvalues - expected).max() <= 1e-12 * np.abs(expected).max()
    x = res.eigenvectors
    assert np.abs(x.T @ x - np.eye(len(diag))).max() <= 1e-9


def test_subnormal_matrix_scales_exactly():
    # the power-of-two scaling leaves the relative spectrum intact
    scale = 2.0**-1060
    res = tridiag_eigen([scale, scale], [0.0, 0.0, 0.0])
    assert np.abs(res.eigenvalues / scale - np.array([-2**0.5, 0.0, 2**0.5])).max() <= 1e-3


def test_input_validation():
    with pytest.raises(ValueError):
        tridiag_eigen([1.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        tridiag_eigen([], [])
    with pytest.raises(ValueError):
        tridiag_eigen([1.0], [0.0, 0.0], tol=0.0)


@given(
    dim=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
@settings(deadline=None, max_examples=60)
def test_matches_reference_solver(dim, data):
    finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
    diag = [data.draw(finite) for _ in range(dim)]
    off = [data.draw(finite) for _ in range(dim - 1)]
    _assert_matches_reference(diag, off)


def _assert_matches_reference(diag, off):
    # The reference is LAPACK's eigh: eigvalsh (dsterf) is off by 6e-4 on
    # the tiny off-diagonal case below.
    res = tridiag_eigen(off, diag)
    a = np.diag(diag).astype(float)
    if len(diag) > 1:
        a += np.diag(off, 1) + np.diag(off, -1)
    assert np.abs(res.eigenvalues - np.linalg.eigh(a)[0]).max() <= 1e-8


def test_matches_reference_solver_with_tiny_off_diagonal():
    _assert_matches_reference([0.0, 0.0, 0.0], [1e-160, 2.5])


def test_hermitian_solver_on_momentum_operator():
    from superosc import ModelParams, momentum_matrix

    mp = momentum_matrix(ModelParams(j=5, p=0.4))
    res = hermitian_tridiag_eigen(mp)
    expected = sorted(
        [-(k ** 0.5) for k in range(1, 6)] + [0.0] + [k ** 0.5 for k in range(1, 6)]
    )
    assert np.abs(res.eigenvalues - np.array(expected)).max() <= 1e-9
    x = res.eigenvectors
    assert np.abs(mp @ x - x * res.eigenvalues[None, :]).max() <= 1e-9


def test_hermitian_solver_agrees_with_reference():
    rng = np.random.default_rng(7)
    d = rng.normal(size=9)
    e = rng.normal(size=8) + 1j * rng.normal(size=8)
    a = np.diag(d).astype(complex) + np.diag(e, 1) + np.diag(e.conj(), -1)
    res = hermitian_tridiag_eigen(a)
    assert np.abs(res.eigenvalues - np.linalg.eigvalsh(a)).max() <= 1e-9


def test_hermitian_solver_validation():
    with pytest.raises(ValueError):
        hermitian_tridiag_eigen(np.ones((2, 3)))
    full = np.ones((4, 4), dtype=complex)
    with pytest.raises(ValueError):
        hermitian_tridiag_eigen(full)  # not tridiagonal


def test_eigenvalues_only_path_is_bit_identical():
    # Skipping the rotation products leaves the sweeps, and so the values,
    # unchanged: the verify sweep's momentum matrices and random Hermitian
    # bands, some with deflating zero couplings.
    from superosc import ModelParams, momentum_matrix

    matrices = [momentum_matrix(ModelParams(j, p))
                for p in (0.1, 0.3, 0.5, 0.7, 0.9) for j in range(0, 13)]
    rng = np.random.default_rng(11)
    for m in (1, 2, 5, 17):
        e = rng.normal(size=m - 1) + 1j * rng.normal(size=m - 1)
        e[::3] = 0.0
        matrices.append(np.diag(rng.normal(size=m)).astype(complex)
                        + np.diag(e, 1) + np.diag(e.conj(), -1))
    for mat in matrices:
        values = hermitian_tridiag_eigenvalues(mat)
        assert values.tobytes() == hermitian_tridiag_eigen(mat).eigenvalues.tobytes()


@pytest.mark.parametrize("bad", [
    np.ones((2, 3)),
    np.ones((4, 4), dtype=complex),               # outside the band
    np.diag([1j, 2.0]) + np.diag([1.0], 1) + np.diag([1.0], -1),  # complex diagonal
    np.diag([0.0, 0.0]) + np.diag([1j], 1) + np.diag([1j], -1),   # not Hermitian
])
def test_eigenvalues_only_path_keeps_the_validation(bad):
    with pytest.raises(ValueError):
        hermitian_tridiag_eigenvalues(bad)
    with pytest.raises(ValueError):
        hermitian_tridiag_eigen(bad)


def test_exact_krawtchouk_values():
    assert krawtchouk_exact(0, 3, 1, 2, 4) == Fraction(1)
    assert krawtchouk_exact(1, 1, 1, 2, 1) == Fraction(-1)


def test_exact_backward_shift_at_smallest_case():
    # (j,k,n) = (1,1,1), p = 1/3: both sides are -2; the (j-n) term has a
    # vanishing coefficient, so it is dropped rather than evaluated
    p = Fraction(1, 3)
    j, k, n = 1, 1, 1
    down = krawtchouk_exact(k - 1, n - 1, 1, 3, j - 1)
    lhs = -n * (1 - p) / p * down
    rhs = j * krawtchouk_exact(k, n, 1, 3, j)
    assert lhs == rhs == Fraction(-2)


def test_exact_shift_identities_hold():
    # Both shift identities (Koekoek, Lesky & Swarttouw, section 9.11) on the
    # oracle's own Fraction sums, at the points of verify's exact shift line:
    #   p j (K_k(n+1) - K_k(n)) = -k K_{k-1}(n; j-1),
    #   p (j-n) K_{k-1}(n; j-1) - n (1-p) K_{k-1}(n-1; j-1) = p j K_k(n),
    # where the shifted values off the grid n <= j-1 have zero coefficients.
    misses = 0
    for p_num, p_den in ((1, 3), (1, 2), (7, 10)):
        p = Fraction(p_num, p_den)

        @cache
        def exact(k, n, N, p_num=p_num, p_den=p_den):
            return krawtchouk_exact(k, n, p_num, p_den, N) if 0 <= n <= N else Fraction(0)

        for j in range(1, 9):
            for k in range(1, j + 1):
                for n in range(j):
                    misses += (p * j * (exact(k, n + 1, j) - exact(k, n, j))
                               != -k * exact(k - 1, n, j - 1))
                for n in range(j + 1):
                    misses += (p * (j - n) * exact(k - 1, n, j - 1)
                               - n * (1 - p) * exact(k - 1, n - 1, j - 1)
                               != p * j * exact(k, n, j))
    assert misses == 0


def test_exact_route_is_rational():
    value = krawtchouk_exact(2, 3, 3, 10, 5)
    assert isinstance(value, Fraction)
    # independent series evaluation: sum_s C(2,s) falling(x,s)/falling(N,s) z^s
    z = Fraction(10, 3)
    expected = 1 - 2 * Fraction(3, 5) * z + Fraction(3 * 2, 5 * 4) * z * z
    assert value == expected


def test_exact_route_size_guard():
    with pytest.raises(ValueError, match="size limit"):
        krawtchouk_exact(1, 1, 1, 2, 13)
    with pytest.raises(ValueError):
        krawtchouk_exact(1, 2, 1, 2, 1)
