import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superosc import (
    GENERATORS,
    J_matrix,
    ModelParams,
    SymTridiagonal,
    analytic_U,
    analytic_V,
    generator_matrix,
    hamiltonian_matrix,
    limit_U,
    momentum_matrix,
    position_matrix,
    position_spectrum,
    position_wavefunction,
    sign_variant,
)
from superosc import oscillator, specfun
from superosc.oscillator import _quarter_turns
from superosc.specfun import krawtchouk_shift_table, krawtchouk_table


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(j=-1, p=0.5)
    with pytest.raises(ValueError):
        ModelParams(j=2, p=0.0)
    with pytest.raises(ValueError):
        ModelParams(j=2, p=1.0)
    assert ModelParams(j=4, p=0.2).dim == 9


@pytest.mark.parametrize("j,p", [(2.0, 0.5), (2.5, 0.5), (True, 0.5), ("2", 0.5), (2, True)])
def test_params_reject_non_integer_j_and_bool(j, p):
    with pytest.raises(ValueError):
        ModelParams(j=j, p=p)


def test_params_accept_numpy_integer_j():
    params = ModelParams(j=np.int64(3), p=0.5)
    assert analytic_U(params).shape == (7, 7)


def test_position_offdiagonals_j1():
    p = 0.37
    off = position_matrix(ModelParams(j=1, p=p)).offdiag
    assert off == pytest.approx([math.sqrt(p), math.sqrt(1 - p)], rel=1e-15)
    eigs = np.linalg.eigvalsh(position_matrix(ModelParams(j=1, p=p)).dense())
    assert eigs == pytest.approx([-1.0, 0.0, 1.0], abs=1e-14)


def test_position_offdiagonals_j3():
    p = 0.13
    off = position_matrix(ModelParams(j=3, p=p)).offdiag
    expected = [
        math.sqrt(3 * p), math.sqrt(1 - p),
        math.sqrt(2 * p), math.sqrt(2 * (1 - p)),
        math.sqrt(p), math.sqrt(3 * (1 - p)),
    ]
    assert off == pytest.approx(expected, rel=1e-15)


def test_position_symmetric_point():
    # p = 1/2: entries alternate sqrt(j+1-k)/sqrt(2) and sqrt(k)/sqrt(2)
    off = position_matrix(ModelParams(j=2, p=0.5)).offdiag
    s2 = math.sqrt(2.0)
    assert off == pytest.approx([1.0, 1 / s2, 1 / s2, 1.0], rel=1e-15)


def test_tridiagonal_container():
    tri = SymTridiagonal(np.array([1.0, 2.0]))
    assert tri.dim == 3
    dense = tri.dense()
    assert np.array_equal(dense, dense.T)
    assert not np.diag(dense).any()


def test_momentum_entry_j1():
    p = 0.61
    mp = momentum_matrix(ModelParams(j=1, p=p))
    # i * G- action on |1,1>: row of |1,0>, column of |1,1>
    assert mp[1, 0] == pytest.approx(-1j * math.sqrt(p), rel=1e-15)


def test_momentum_matrix_equals_generator_combination():
    # M_p = i (sqrt(p) F+ + sqrt(1-p) G+ + sqrt(1-p) F- + sqrt(p) G-), bit for bit
    for p in (0.1, 0.5, 0.9):
        for j in range(13):
            combo = (math.sqrt(p) * generator_matrix("F+", j)
                     + math.sqrt(1.0 - p) * generator_matrix("G+", j)
                     + math.sqrt(1.0 - p) * generator_matrix("F-", j)
                     + math.sqrt(p) * generator_matrix("G-", j))
            assert np.array_equal(momentum_matrix(ModelParams(j=j, p=p)), 1j * combo)


@pytest.mark.parametrize("j", [0, 1, 2, 5, 40, 250])
def test_momentum_matrix_bytes_equal_the_scaled_real_band(j):
    # The dense real band with +t above and -t below the diagonal, times 1j:
    # the same complex values, signed zeros of the real parts included.
    for p in (0.1, 0.37, 0.5, 0.9):
        params = ModelParams(j=j, p=p)
        off = position_matrix(params).offdiag
        band = np.zeros((params.dim, params.dim))
        idx = np.arange(len(off))
        band[idx, idx + 1] = off
        band[idx + 1, idx] = -off
        assert momentum_matrix(params).tobytes() == (1j * band).tobytes()


def test_row_phases_bytes_equal_the_rotated_signs():
    # The one quarter-turn rule behind V, J and the spectral transform:
    # -i(-1)^k on row 2k and (-1)^k on row 2k+1, formed by a complex product.
    for j in (0, 1, 2, 7, 30):
        r = np.arange(2 * j + 1)
        phase = np.where(r // 2 % 2 == 0, 1.0, -1.0).astype(complex)
        phase[r % 2 == 0] *= -1j
        assert _quarter_turns(2 * j + 1).tobytes() == phase.tobytes()


def test_momentum_is_hermitian_exactly():
    for j in range(11):
        mp = momentum_matrix(ModelParams(j=j, p=0.3))
        assert np.array_equal(mp.conj().T, mp)


def test_momentum_eigenvalues_j2():
    mp = momentum_matrix(ModelParams(j=2, p=0.44))
    eigs = np.linalg.eigvalsh(mp)
    expected = [-math.sqrt(2), -1.0, 0.0, 1.0, math.sqrt(2)]
    assert eigs == pytest.approx(expected, abs=1e-10)


def test_hamiltonian_small_cases():
    assert np.array_equal(hamiltonian_matrix(0), [[0.5]])
    assert np.array_equal(hamiltonian_matrix(1), np.diag([2.5, 1.5, 0.5]))
    spectrum = sorted(np.diag(hamiltonian_matrix(7)))
    assert spectrum == [n + 0.5 for n in range(15)]


def test_position_spectrum_values():
    assert np.array_equal(position_spectrum(0), [0.0])
    expected3 = [-math.sqrt(3), -math.sqrt(2), -1, 0, 1, math.sqrt(2), math.sqrt(3)]
    assert position_spectrum(3) == pytest.approx(expected3, rel=1e-15)
    s10 = position_spectrum(10)
    assert len(s10) == 21
    expected10 = sorted([-math.sqrt(k) for k in range(1, 11)] + [0.0]
                        + [math.sqrt(k) for k in range(1, 11)])
    assert s10 == pytest.approx(expected10, rel=1e-15)


def _analytic_U_by_columns(j: int, p: float) -> np.ndarray:
    # Column-by-column assembly from the Krawtchouk tables, the reference
    # for the sliced assembly in analytic_U. Odd rows read the (p, j-1)
    # table that analytic_U reads, the forward shift of the (p, j) one.
    dim = 2 * j + 1
    mat = np.zeros((dim, dim))
    table_j = krawtchouk_table(p, j)
    even = np.arange(j + 1)
    sign_even = np.where(even % 2 == 0, 1.0, -1.0)
    mat[2 * even, j] = sign_even * table_j[0, even]
    for k in range(1, j + 1):
        mat[2 * even, j - k] = mat[2 * even, j + k] = sign_even / math.sqrt(2.0) * table_j[k, even]
    if j >= 1:
        table_j1 = krawtchouk_shift_table(p, j)
        odd = np.arange(j)
        sign_odd = np.where(odd % 2 == 0, 1.0, -1.0)
        for k in range(1, j + 1):
            col = sign_odd / math.sqrt(2.0) * table_j1[k - 1, odd]
            mat[2 * odd + 1, j - k] = -col
            mat[2 * odd + 1, j + k] = col
    return mat


def test_analytic_U_matches_column_assembly():
    for j in (0, 1, 2, 3, 10, 151):
        for p in (0.1, 0.5, 0.83):
            u = analytic_U(ModelParams(j=j, p=p))
            expected = _analytic_U_by_columns(j, p)
            assert np.array_equal(u, expected)
            assert np.array_equal(np.signbit(u), np.signbit(expected))


def test_eigenvector_matrix_j1_closed_form():
    for p in (0.2, 0.5, 0.85):
        u = analytic_U(ModelParams(j=1, p=p))
        expected = np.array([
            [math.sqrt(p / 2), math.sqrt(1 - p), math.sqrt(p / 2)],
            [-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)],
            [math.sqrt((1 - p) / 2), -math.sqrt(p), math.sqrt((1 - p) / 2)],
        ])
        assert np.abs(u - expected).max() < 1e-14


def test_center_column_vanishes_on_odd_rows():
    u = analytic_U(ModelParams(j=6, p=0.42))
    assert not u[1::2, 6].any()


def test_corner_entry_weight_value():
    for j, p in ((1, 0.3), (4, 0.5), (9, 0.77)):
        u = analytic_U(ModelParams(j=j, p=p))
        assert u[0, j] == pytest.approx((1 - p) ** (j / 2), rel=1e-12)


@given(
    j=st.integers(min_value=0, max_value=25),
    p=st.floats(min_value=0.05, max_value=0.95),
)
@settings(deadline=None, max_examples=40)
def test_eigendecomposition_properties(j, p):
    params = ModelParams(j=j, p=p)
    mq = position_matrix(params).dense()
    u = analytic_U(params)
    d = np.diag(position_spectrum(j))
    assert np.abs(mq @ u - u @ d).max() < 1e-10
    assert np.abs(u.T @ u - np.eye(params.dim)).max() < 1e-10


def test_momentum_eigenvectors_conjugated_relation():
    # M_p conj(V) = conj(V) D; V itself is unitary with V = J U
    for j, p in ((3, 0.25), (8, 0.5), (12, 0.7)):
        params = ModelParams(j=j, p=p)
        v = analytic_V(params)
        mp = momentum_matrix(params)
        d = np.diag(position_spectrum(j))
        assert np.abs(mp @ v.conj() - v.conj() @ d).max() < 1e-10
        assert np.abs(v.conj().T @ v - np.eye(params.dim)).max() < 1e-10


def test_momentum_matrix_phase_structure():
    params = ModelParams(j=5, p=0.35)
    u = analytic_U(params)
    v = analytic_V(params)
    assert np.array_equal(v, J_matrix(5) @ u.astype(complex))
    assert np.abs(v[0] + 1j * u[0]).max() == 0.0


def test_transpose_product_is_antidiagonal():
    params = ModelParams(j=4, p=0.6)
    v = analytic_V(params)
    anti = -np.eye(9)[::-1]
    assert np.abs(v.T @ v - anti).max() < 1e-10


def test_sign_variant_preserves_spectrum():
    params = ModelParams(j=4, p=0.28)
    tri, vecs = sign_variant(params)
    base = position_matrix(params)
    flipped = np.asarray(tri.offdiag)
    assert np.array_equal(flipped[0::2], np.asarray(base.offdiag)[0::2])
    assert np.array_equal(flipped[1::2], -np.asarray(base.offdiag)[1::2])
    eigs = np.linalg.eigvalsh(tri.dense())
    assert eigs == pytest.approx(position_spectrum(4), abs=1e-10)
    d = np.diag(position_spectrum(4))
    assert np.abs(tri.dense() @ vecs - vecs @ d).max() < 1e-10


def test_sign_variant_conjugator_pattern():
    # the eigenvectors are D1 U with D1 = diag(1,1,-1,-1,1,...)
    params = ModelParams(j=2, p=0.5)
    _, vecs = sign_variant(params)
    d1 = np.diag([1.0, 1.0, -1.0, -1.0, 1.0])
    assert np.array_equal(vecs, d1 @ analytic_U(params))
    assert np.array_equal(d1 @ d1, np.eye(5))


def test_limit_toward_zero_j1():
    u0 = limit_U(1, "toward-zero")
    s = 1 / math.sqrt(2)
    expected = np.array([[0, 1, 0], [-s, 0, s], [s, 0, s]])
    assert np.abs(u0 - expected).max() < 1e-15


def test_limit_toward_zero_structure():
    for j in range(7):
        u0 = limit_U(j, "toward-zero")
        assert np.abs(u0.T @ u0 - np.eye(2 * j + 1)).max() < 1e-12
        row0 = u0[0]
        assert row0[j] == 1.0
        assert np.count_nonzero(row0) == 1


def test_limit_toward_one_orthogonal():
    for j in range(7):
        u1 = limit_U(j, "toward-one")
        assert np.abs(u1.T @ u1 - np.eye(2 * j + 1)).max() < 1e-9


def test_limit_toward_zero_matches_its_documented_entries():
    s = 1 / math.sqrt(2)
    for j in range(41):
        expected = np.zeros((2 * j + 1, 2 * j + 1))
        expected[0, j] = 1.0
        for n in range(1, j + 1):
            expected[2 * n, j - n] = expected[2 * n, j + n] = s
        for n in range(j):
            expected[2 * n + 1, j - (n + 1)] = -s
            expected[2 * n + 1, j + (n + 1)] = s
        assert np.array_equal(limit_U(j, "toward-zero"), expected)


def test_limit_toward_one_is_the_reflected_toward_zero_limit():
    # M_q(1-p) = R M_q(p) R for the anti-identity R.
    for j in range(41):
        signs = (-1.0) ** np.arange(2 * j + 1)
        assert np.array_equal(limit_U(j, "toward-one"),
                              limit_U(j, "toward-zero")[::-1] * signs)


def _count_eigensolves(monkeypatch) -> list:
    # Empties the Krawtchouk caches and counts the eigensolves after that.
    calls = []
    solve = specfun.eigh_tridiagonal

    def counted(diag, off):
        calls.append(len(diag))
        return solve(diag, off)

    monkeypatch.setattr(specfun, "eigh_tridiagonal", counted)
    specfun._krawtchouk_table.cache_clear()
    specfun._krawtchouk_shift_table.cache_clear()
    return calls


@pytest.mark.parametrize("j", [1, 2, 9, 60])
def test_analytic_U_runs_one_eigensolve_per_model(monkeypatch, j):
    # Odd rows come from the (p, j) eigenvectors: a cold model solves the
    # (j+1)x(j+1) Jacobi matrix once, and a warm one solves nothing.
    calls = _count_eigensolves(monkeypatch)
    params = ModelParams(j, 0.3)
    cold = analytic_U(params)
    assert calls == [j + 1]
    assert np.array_equal(analytic_U(params), cold)
    assert calls == [j + 1]


def test_cold_odd_row_builds_the_even_table(monkeypatch):
    calls = _count_eigensolves(monkeypatch)
    params = ModelParams(9, 0.3)
    odd = oscillator._level_row(params, 5)
    assert calls == [10]
    even = oscillator._level_row(params, 4)
    assert calls == [10]
    u = analytic_U(params)
    assert np.array_equal(odd, u[5]) and np.array_equal(even, u[4])
    assert calls == [10]


def test_limits_build_no_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("an endpoint limit is exact: nothing to build")

    monkeypatch.setattr(oscillator, "analytic_U", refuse)
    monkeypatch.setattr(oscillator, "krawtchouk_table", refuse)
    for j in range(7):
        for side in ("toward-zero", "toward-one"):
            u = limit_U(j, side)
            assert np.abs(u.T @ u - np.eye(2 * j + 1)).max() < 1e-15


@pytest.mark.parametrize("j", [1, 2, 7, 40, 300])
@pytest.mark.parametrize("p", [0.1, 0.3, 0.37, 1e-6])
def test_analytic_U_reflects_under_p_to_one_minus_p(j, p):
    signs = (-1.0) ** np.arange(2 * j + 1)
    u = analytic_U(ModelParams(j, p))
    reflected = analytic_U(ModelParams(j, 1 - p))
    assert np.abs(reflected - u[::-1] * signs).max() <= 1e-11


def test_limit_rejects_unknown_side():
    with pytest.raises(ValueError):
        limit_U(2, "sideways")


# sha256 of every array a family of functions returns, in order, each as its
# dtype, shape and bytes: for j = 0..12 and, where p enters, the five p below.
# The same at one and two BLAS threads; any change of any bit (the sign of
# a zero included) changes the digest.
_PIN_P = (0.1, 0.3, 0.5, 0.9, 1e-12)
_PINNED_ARRAYS = {
    "generator_matrix": (
        lambda: (generator_matrix(name, j) for j in range(13) for name in GENERATORS),
        "75116ac3072961e97bdbf16625045e16381d41065a19869516e8b75bff38daf1"),
    "analytic_U": (
        lambda: (analytic_U(ModelParams(j, p)) for p in _PIN_P for j in range(13)),
        "34a175d3e436b1a39bf65229a9e2f1bb5c7c4f5172af64a210e8f8d56daf0909"),
    "analytic_V": (
        lambda: (analytic_V(ModelParams(j, p)) for p in _PIN_P for j in range(13)),
        "143e6863c6fddc95bc3b6f02c4a947be66259a9eff2b43ba39b96aefa0388da3"),
    "limit_U": (
        lambda: (limit_U(j, side) for j in range(13) for side in ("toward-zero", "toward-one")),
        "571bd5be8cb90268af64fdbb671bec4346eb20d3d1ab35c52e60bfdda65fbdfd"),
    "position_wavefunction": (
        lambda: (position_wavefunction(ModelParams(j, p), n).amplitudes
                 for p in _PIN_P for j in range(13) for n in range(2 * j + 1)),
        "26cee9a1d717df04e655cff01835999e8a3c0f17a416c825ce85199df5df5d3c"),
}


@pytest.mark.parametrize("build, digest", _PINNED_ARRAYS.values(), ids=_PINNED_ARRAYS.keys())
def test_arrays_pinned_by_sha256(build, digest):
    sha = hashlib.sha256()
    for array in build():
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    assert sha.hexdigest() == digest
