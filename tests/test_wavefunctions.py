import math
import tracemalloc

import numpy as np
import pytest

from superosc import (
    ModelParams,
    analytic_U,
    analytic_V,
    apply_fourier,
    fourier_analytic,
    momentum_wavefunction,
    node_count,
    paraboson_limit_table,
    position_spectrum,
    position_wavefunction,
    position_wavefunction_closed,
)
from superosc import oscillator, wavefunctions
from superosc.specfun import _krawtchouk_table


def test_wave_table_fields():
    params = ModelParams(j=3, p=0.4)
    table = position_wavefunction(params, 2)
    assert table.kind == "position"
    assert (table.j, table.p, table.n) == (3, 0.4, 2)
    assert table.energy == 2.5
    assert np.array_equal(table.grid, position_spectrum(3))
    assert len(table.amplitudes) == 7


def test_level_range_is_enforced():
    params = ModelParams(j=2, p=0.5)
    with pytest.raises(IndexError):
        position_wavefunction(params, 5)
    with pytest.raises(IndexError):
        position_wavefunction(params, -1)


@pytest.mark.parametrize("build", [position_wavefunction, momentum_wavefunction,
                                   position_wavefunction_closed, node_count])
@pytest.mark.parametrize("level", [True, False, 2.0, 1.5, "1", None])
def test_levels_must_be_integers(build, level):
    with pytest.raises(ValueError):
        build(ModelParams(j=2, p=0.4), level)


@pytest.mark.parametrize("p", [0.5, 0.37, 0.7, 1e-3, 0.9])
def test_rows_equal_dense_rows_bit_for_bit(p):
    for j in list(range(41)) + [101, 300]:
        params = ModelParams(j=j, p=p)
        u, v = analytic_U(params), analytic_V(params)
        for n in range(2 * j + 1):
            assert position_wavefunction(params, n).amplitudes.tobytes() == u[n].tobytes()
            assert momentum_wavefunction(params, n).amplitudes.tobytes() == v[n].tobytes()


def test_rows_need_no_dense_matrix(monkeypatch):
    params = ModelParams(j=7, p=0.3)
    expected_u, expected_v = analytic_U(params), analytic_V(params)

    def refuse(params):
        raise AssertionError("a row read built a dense eigenvector matrix")

    for module in (oscillator, wavefunctions):
        for name in ("analytic_U", "analytic_V"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for n in range(15):
        assert np.array_equal(position_wavefunction(params, n).amplitudes, expected_u[n])
        assert np.array_equal(momentum_wavefunction(params, n).amplitudes, expected_v[n])


def test_warm_row_read_is_linear_in_j():
    # At j = 1000 a dense U takes 32 MB; a warm row read takes one column
    # of a cached table and allocates O(j).
    params = ModelParams(j=1000, p=0.3)
    position_wavefunction(params, 0)
    position_wavefunction(params, 1)
    misses = _krawtchouk_table.cache_info().misses
    tracemalloc.start()
    try:
        for n in (0, 1, 998, 1999, 2000):
            position_wavefunction(params, n)
            momentum_wavefunction(params, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert _krawtchouk_table.cache_info().misses == misses


def test_rows_are_normalized():
    params = ModelParams(j=9, p=0.35)
    for n in range(19):
        amps = position_wavefunction(params, n).amplitudes
        assert np.sum(amps * amps) == pytest.approx(1.0, abs=1e-12)


def test_position_parity_is_exact():
    params = ModelParams(j=10, p=0.9)
    for n in range(21):
        amps = position_wavefunction(params, n).amplitudes
        mirrored = amps[::-1]
        if n % 2 == 0:
            assert np.array_equal(amps, mirrored)
        else:
            assert np.array_equal(amps, -mirrored)


def test_ground_state_center_value():
    for j, p in ((4, 0.3), (7, 0.62)):
        amps = position_wavefunction(ModelParams(j=j, p=p), 0).amplitudes
        assert amps[j] == pytest.approx((1 - p) ** (j / 2), rel=1e-12)


def test_odd_levels_vanish_at_center():
    params = ModelParams(j=8, p=0.27)
    for n in range(0, 8):
        amps = position_wavefunction(params, 2 * n + 1).amplitudes
        assert amps[8] == 0.0


def test_tables_copy_out_of_cache():
    params = ModelParams(j=3, p=0.5)
    table = position_wavefunction(params, 0)
    table.amplitudes[0] = 99.0
    fresh = position_wavefunction(params, 0)
    assert fresh.amplitudes[0] != 99.0


def test_momentum_amplitudes_share_magnitudes():
    params = ModelParams(j=6, p=0.4)
    for n in range(13):
        phi = position_wavefunction(params, n).amplitudes
        psi = momentum_wavefunction(params, n).amplitudes
        assert np.abs(np.abs(psi) - np.abs(phi)).max() < 1e-14


def test_momentum_row_norms():
    params = ModelParams(j=8, p=0.4)
    for n in range(17):
        psi = momentum_wavefunction(params, n).amplitudes
        assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_momentum_phases_follow_row_rule():
    # row r of the momentum table is (-i * i^r) times the position row
    params = ModelParams(j=2, p=0.5)
    u = analytic_U(params)
    phases = -1j * 1j ** np.arange(5)
    for n in range(5):
        psi = momentum_wavefunction(params, n).amplitudes
        assert np.abs(psi - phases[n] * u[n]).max() == 0.0


def test_closed_route_equals_matrix_rows():
    for j, p in ((5, 0.2), (10, 0.5), (12, 0.8)):
        params = ModelParams(j=j, p=p)
        u = analytic_U(params)
        for n in range(2 * j + 1):
            closed = position_wavefunction_closed(params, n)
            assert np.abs(closed - u[n]).max() <= 1e-10


def test_node_counts_match_level():
    for j, p in ((12, 0.3), (30, 0.5)):
        params = ModelParams(j=j, p=p)
        for n in range(2 * j + 1):
            assert node_count(params, n) == n


def test_apply_fourier_reproduces_momentum_rows():
    for j, p in ((1, 0.5), (5, 0.2)):
        params = ModelParams(j=j, p=p)
        u = analytic_U(params)
        v = analytic_V(params)
        mapped = apply_fourier(u, fourier_analytic(params))
        assert np.abs(mapped - v).max() <= 1e-10


@pytest.mark.parametrize("j,p", [(26, 1e-12), (40, 1e-12), (103, 1e-3)])
def test_closed_route_holds_where_the_2f1_leaves_the_float_range(j, p):
    # K_m(n) = 2F1(-m, -n; -N; 1/p) exceeds the float range at the top
    # levels of these models; its normalized value stays below 1.
    params = ModelParams(j=j, p=p)
    u = analytic_U(params)
    for level in range(2 * j + 1):
        assert np.abs(position_wavefunction_closed(params, level) - u[level]).max() <= 1e-13
        assert node_count(params, level) == level


def test_apply_fourier_reads_the_transform_without_a_copy():
    transform = fourier_analytic(ModelParams(j=3, p=0.4))
    assert np.asarray(transform) is transform.data
    stack = np.eye(7)
    assert np.array_equal(apply_fourier(stack, transform), transform.data)


def test_apply_fourier_identity_passthrough():
    params = ModelParams(j=3, p=0.4)
    u = analytic_U(params)
    assert np.array_equal(apply_fourier(u, np.eye(7)), u)


def test_apply_fourier_shape_check():
    with pytest.raises(ValueError):
        apply_fourier(np.ones((2, 4)), np.eye(3))


def test_limit_table_shape_and_lattice():
    j, p, alpha, n = 25, 0.4, 7.0, 1
    rows = paraboson_limit_table(j, p, alpha, n, 10)
    assert rows.shape == (10, 4)
    for idx, k in enumerate(range(1, 11)):
        lam = k * (k + 2 * alpha + 1)
        assert rows[idx, 0] == pytest.approx(math.sqrt(lam / j), rel=1e-15)


def test_limit_table_large_alpha_gap_column():
    rows = paraboson_limit_table(20, 0.5, 1e6, 2, 15)
    assert rows[:, 3].max() <= 1e-4


def test_limit_table_ground_row_is_single_signed():
    rows = paraboson_limit_table(60, 0.5, 10.0, 0, 15)
    assert (rows[:, 1] > 0).all()
    assert (rows[:, 2] >= 0).all()


def test_limit_table_validation():
    with pytest.raises(ValueError):
        paraboson_limit_table(5, 0.5, 10.0, 0, 6)
    with pytest.raises(ValueError):
        paraboson_limit_table(5, 0.5, -1.0, 0, 3)
    with pytest.raises(ValueError):
        paraboson_limit_table(5, 0.5, 10.0, 6, 3)
    with pytest.raises(ValueError):
        paraboson_limit_table(5, 1.2, 10.0, 0, 3)


def test_limit_table_converges_in_j():
    worst = []
    for j in (200, 400):
        rows = paraboson_limit_table(j, 0.5, 10.0, 1, 15)
        worst.append(np.abs(rows[:, 1] - rows[:, 2]).max())
    assert worst[1] < worst[0]
