import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superosc import fourier, oscillator, specfun
from superosc import (
    J_matrix,
    ModelParams,
    S_closed,
    analytic_U,
    expected_multiplicities,
    fourier_analytic,
    fourier_eigensystem_report,
    fourier_spectral,
    krawtchouk_normalized,
    krawtchouk_table,
)

S2 = math.sqrt(2.0)


def _S_sum(k, l, p, j):
    # The overlap by its definition, sum_n (-1)^n K~_k(n) K~_l(n), over the
    # eigensolved table.
    table = krawtchouk_table(p, j)
    signs = np.where(np.arange(j + 1) % 2 == 0, 1.0, -1.0)
    return float(np.sum(signs * table[k, :] * table[l, :]))

# the doubled transform at j=3, p=1/2: every entry is 0, +-1, +-i or -i*sqrt(2)
DOUBLED_J3_HALF = np.array([
    [0, 0, 1, -1j * S2, -1, 0, 0],
    [0, 1, -1j, 0, -1j, -1, 0],
    [1, -1j, 0, 0, 0, -1j, -1],
    [-1j * S2, 0, 0, 0, 0, 0, -1j * S2],
    [-1, -1j, 0, 0, 0, -1j, 1],
    [0, -1, -1j, 0, -1j, 1, 0],
    [0, 0, -1, -1j * S2, 1, 0, 0],
])


def test_quarter_turn_diagonal():
    assert np.array_equal(J_matrix(1), np.diag([-1j, 1, 1j]))
    assert np.array_equal(J_matrix(3), np.diag([-1j, 1, 1j, -1, -1j, 1, 1j]))
    j4 = np.linalg.matrix_power(J_matrix(5), 4)
    assert np.array_equal(j4, np.eye(11, dtype=complex))


@pytest.mark.parametrize("j", [50, 1000])
def test_quarter_turn_diagonal_is_exact_at_large_j(j):
    # numpy's i^r is rounded from r = 100 on; the phases are exact.
    roots = np.array([-1j, 1.0, 1j, -1.0])
    assert np.array_equal(np.diag(J_matrix(j)), roots[np.arange(2 * j + 1) % 4])


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
def test_spectral_square_is_the_mirror_at_large_j(p):
    # F^2 = -R, R the antidiagonal mirror. With phases i^r rounded from
    # r = 100 on the spectral route missed it by 3.6-6.1e-14 at j = 250;
    # with exact phases it misses by under 1e-14.
    j = 250
    f = fourier_spectral(ModelParams(j, p)).data
    mirror = np.eye(2 * j + 1)[::-1]
    assert np.max(np.abs(f @ f + mirror)) <= 2e-14


@pytest.mark.parametrize("j", [0, 1, 2, 7, 72, 300])
@pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
def test_spectral_tables_and_matrix_are_exactly_symmetric(j, p):
    f = fourier_spectral(ModelParams(j, p))
    assert f.j == j and f.even.shape == (j + 1, j + 1) and f.odd.shape == (j, j)
    for mat in (f.even, f.odd, f.data):
        assert np.array_equal(mat, mat.T)


def test_spectral_route_stays_in_table_space():
    # Warm tables: two (j+1)^2 products and their two results, about 6 B per
    # (2j+1)^2 entry; the dense matrix alone would take 16 and U^T J U
    # took 56.
    params = ModelParams(1000, 0.3)
    fourier_spectral(params)
    tracemalloc.start()
    try:
        f = fourier_spectral(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * params.dim ** 2
    assert "data" not in vars(f)


def test_dense_matrix_is_built_once_from_the_tables():
    f = fourier_spectral(ModelParams(5, 0.3))
    assert f.data is f.data and np.asarray(f) is f.data
    assert np.array_equal(f.data, fourier._fourier_blocks(f.even, f.odd))


@pytest.mark.parametrize("where, wrong", [(0, 1j), (1, -1.0), (2, 1.0), (3, -1j)])
def test_route_agreement_catches_one_wrong_quarter_turn(monkeypatch, where, wrong):
    # The spectral route reads J's diagonal; the analytic route reads no
    # phase table, so only their agreement (and F U^T = U^T J) sees the fault.
    params = ModelParams(j=4, p=0.3)
    table = oscillator._QUARTER_TURNS.copy()
    table[where] = wrong
    monkeypatch.setattr(oscillator, "_QUARTER_TURNS", table)
    report, _ = fourier_eigensystem_report(params)
    passed = {c.name.removeprefix("j=4 p=0.3 "): c.passed for c in report.checks}
    assert not passed["route agreement"]
    assert all(passed[f"analytic {prop}"] for prop in ("symmetric", "unitary", "fourth power = I"))


def test_spectral_route_j1_half():
    f = fourier_spectral(ModelParams(j=1, p=0.5))
    expected = np.array([
        [0.5, -1j / S2, -0.5],
        [-1j / S2, 0.0, -1j / S2],
        [-0.5, -1j / S2, 0.5],
    ])
    assert np.abs(np.asarray(f) - expected).max() < 1e-12


def test_array_conversion_honours_dtype():
    f = fourier_analytic(ModelParams(j=3, p=0.3))
    converted = np.asarray(f, dtype=np.complex64)
    assert converted.dtype == np.complex64
    assert np.array_equal(converted, f.data.astype(np.complex64))


def test_transform_is_read_only_and_np_array_copies():
    f = fourier_analytic(ModelParams(j=3, p=0.3))
    before = f.data.copy()
    copied = np.array(f)
    copied[0, 0] = 99.0
    assert np.array_equal(f.data, before)
    assert np.array(f, copy=False) is f.data
    for table in (f.data, f.even, f.odd):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0
    with pytest.raises(ValueError, match="needs a copy"):
        np.array(f, dtype=np.complex64, copy=False)
    # The caller's tables stay its own to write; the transform holds views.
    even, odd = np.eye(3)[::-1].copy(), np.eye(2)[::-1].copy()
    held = fourier.FourierMatrix(even, odd)
    assert even.flags.writeable and not held.even.flags.writeable
    assert np.shares_memory(held.even, even)


def test_transform_is_symmetric():
    f = np.asarray(fourier_analytic(ModelParams(j=5, p=0.3)))
    assert np.abs(f - f.T).max() <= 1e-12


def test_center_entry_closed_form():
    for j, p in ((2, 0.3), (5, 0.5), (4, 0.8)):
        f = fourier_analytic(ModelParams(j=j, p=p))
        assert f.entry(0, 0) == pytest.approx(-1j * (1 - 2 * p) ** j, abs=1e-12)


def test_overlap_closed_values():
    for j, p in ((3, 0.2), (6, 0.55)):
        assert S_closed(0, 0, p, j) == pytest.approx((1 - 2 * p) ** j, abs=1e-13)
    assert S_closed(3, 0, 0.5, 3) == pytest.approx(1.0, abs=1e-13)
    assert S_closed(1, 1, 0.5, 1) == pytest.approx(0.0, abs=1e-13)


def test_overlap_sum_route_matches_brute_force():
    j, p, k, l = 4, 0.3, 2, 1
    brute = sum(
        (-1) ** n * krawtchouk_normalized(k, n, p, j) * krawtchouk_normalized(l, n, p, j)
        for n in range(j + 1)
    )
    assert S_closed(k, l, p, j) == pytest.approx(brute, abs=1e-14)


@given(
    j=st.integers(min_value=0, max_value=12),
    data=st.data(),
    p=st.floats(min_value=0.05, max_value=0.95),
)
@settings(deadline=None, max_examples=60)
def test_overlap_routes_agree(j, data, p):
    k = data.draw(st.integers(min_value=0, max_value=j))
    l = data.draw(st.integers(min_value=0, max_value=j))
    assert S_closed(k, l, p, j) == pytest.approx(_S_sum(k, l, p, j), abs=1e-10)


def test_overlap_at_half_is_the_anti_identity():
    for j in range(41):
        table = fourier._S_table(0.5, j)
        assert np.array_equal(table, np.eye(j + 1)[::-1])
        sums = np.array([[_S_sum(k, l, 0.5, j) for l in range(j + 1)] for k in range(j + 1)])
        assert np.max(np.abs(table - sums)) <= 1e-12


def test_closed_overlap_at_half_never_uses_the_sum():
    # Exact zeros and ones: a sum over float tables would leave rounding.
    for j in range(9):
        for k in range(j + 1):
            for l in range(j + 1):
                assert S_closed(k, l, 0.5, j) == (1.0 if k + l == j else 0.0)


@pytest.mark.parametrize("p", [1e-16, 1.0 - 2.0**-53])
def test_closed_routes_refuse_p_that_rounds_to_an_endpoint(p):
    with pytest.raises(ValueError):
        S_closed(1, 1, p, 3)
    with pytest.raises(ValueError):
        fourier._S_table(p, 3)


@pytest.mark.parametrize("p", [1e-16, 1.0 - 2.0**-53])
def test_analytic_route_takes_p_the_closed_routes_refuse(p):
    # fourier_analytic reads Krawtchouk tables at w = 4p(1-p), with no
    # rational form of p, so it takes every p that ModelParams takes.
    params = ModelParams(3, p)
    analytic = fourier_analytic(params).data
    assert np.max(np.abs(analytic - fourier_spectral(params).data)) <= 1e-12
    assert np.max(np.abs(analytic.conj().T @ analytic - np.eye(7))) <= 1e-12


# p around 1/2, where 1.0 - 4p(1-p) would lose up to 1.7e-8, and near the
# endpoints, where the sign sigma and the weak columns' signs matter.
_EXACT_P = (0.1, 0.25, 0.3, 0.37, 0.5, 0.7, 0.9, 0.123456789, 1e-3, 0.999,
            0.5 - 1e-6, 0.5 + 1e-8, 0.5 + 3e-9, 0.5 + 1e-12, 0.5 - 1e-12)


def _exact_fourier(j, p):
    odd = fourier._S_table(p, j - 1) if j else np.empty((0, 0))
    return fourier._fourier_blocks(fourier._S_table(p, j), odd)


@pytest.mark.parametrize("p", _EXACT_P)
def test_analytic_route_matches_the_exact_overlaps(p):
    for j in (0, 1, 2, 3, 7, 12, 17, 25, 40, 60):
        analytic = fourier_analytic(ModelParams(j, p)).data
        assert np.max(np.abs(analytic - _exact_fourier(j, p))) <= 1e-13
        assert np.array_equal(analytic, analytic.T)


def test_analytic_route_at_half_is_exact():
    # q = (1-2p)^2 = 0: the anti-identity, no eigensolve, every bit as the
    # exact route gives it.
    for j in range(0, 20):
        analytic = fourier_analytic(ModelParams(j, 0.5)).data
        assert analytic.tobytes() == _exact_fourier(j, 0.5).tobytes()


def test_analytic_route_is_fast_at_large_j():
    # The exact route took 81 s here (its integers carry b^(2j), b = 10^9).
    specfun._krawtchouk_table.cache_clear()
    specfun._krawtchouk_shift_table.cache_clear()
    start = time.perf_counter()
    fourier_analytic(ModelParams(400, 0.123456789))
    assert time.perf_counter() - start < 1.0


def test_analytic_route_uses_no_big_integers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fourier_analytic reached the exact integer route")

    for module in (fourier, specfun):
        for name in ("_S_table", "_hyp2f1_rational", "_ratio"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for j, p in ((0, 0.3), (1, 0.7), (12, 0.3), (41, 0.9), (30, 0.5), (25, 0.5 + 1e-8)):
        params = ModelParams(j, p)
        assert np.max(np.abs(fourier_analytic(params).data
                             - fourier_spectral(params).data)) <= 1e-12


def test_overlap_domain_checks():
    with pytest.raises(ValueError):
        S_closed(4, 0, 0.5, 3)
    with pytest.raises(ValueError):
        S_closed(0, 0, 1.0, 3)


def test_doubled_matrix_at_j3_half():
    f = fourier_analytic(ModelParams(j=3, p=0.5))
    assert np.abs(2 * np.asarray(f) - DOUBLED_J3_HALF).max() <= 1e-12


def test_center_row_edge_formula():
    params = ModelParams(j=5, p=0.4)
    f = fourier_analytic(params)
    for k in range(1, 6):
        expected = -1j / S2 * S_closed(k, 0, 0.4, 5)
        assert f.entry(-k, 0) == pytest.approx(expected, abs=1e-12)
        assert f.entry(k, 0) == pytest.approx(expected, abs=1e-12)


def test_routes_agree_j1_half():
    a = np.asarray(fourier_analytic(ModelParams(j=1, p=0.5)))
    s = np.asarray(fourier_spectral(ModelParams(j=1, p=0.5)))
    assert np.abs(a - s).max() <= 1e-12


def test_multiplicity_rule():
    assert expected_multiplicities(3) == (2, 2, 2, 1)
    assert expected_multiplicities(4) == (3, 2, 2, 2)
    for j in range(41):
        counts = expected_multiplicities(j)
        assert sum(counts) == 2 * j + 1


def test_fourth_power_is_identity():
    f = np.asarray(fourier_analytic(ModelParams(j=6, p=0.7)))
    f4 = np.linalg.matrix_power(f, 4)
    assert np.abs(f4 - np.eye(13)).max() <= 1e-10


def test_unitarity():
    f = np.asarray(fourier_analytic(ModelParams(j=7, p=0.45)))
    assert np.abs(f.conj().T @ f - np.eye(15)).max() <= 1e-10


def test_spectrum_multiplicities_from_eigenvalues():
    # cluster the unitary spectrum around the fourth roots of unity
    for j, p in ((3, 0.5), (4, 0.25), (9, 0.7)):
        f = np.asarray(fourier_analytic(ModelParams(j=j, p=p)))
        eigs = np.linalg.eigvals(f)
        roots = np.array([-1j, 1.0, 1j, -1.0])
        counts = tuple(
            int(np.sum(np.abs(eigs - root) < 1e-6)) for root in roots
        )
        assert counts == tuple(expected_multiplicities(j))


def test_eigenvector_rows_relation():
    params = ModelParams(j=6, p=0.35)
    f = np.asarray(fourier_analytic(params))
    u = analytic_U(params)
    jmat = J_matrix(6)
    assert np.abs(f @ u.T - u.T @ jmat).max() <= 1e-10


def test_eigensystem_report_passes():
    report, counts = fourier_eigensystem_report(ModelParams(j=8, p=0.3))
    assert report.passed, report.failures()
    assert counts == expected_multiplicities(8)


@pytest.mark.parametrize("where, wrong", [(0, 1j), (7, 1.0), (16, -1.0 + 1e-15j)])
def test_multiplicity_check_catches_one_wrong_phase(monkeypatch, where, wrong):
    name = "j=8 p=0.3 multiplicity parity rule"
    report, _ = fourier_eigensystem_report(ModelParams(j=8, p=0.3))
    assert [c.passed for c in report.checks if c.name == name] == [True]
    quarter_turns = fourier._quarter_turns

    def one_wrong(dim):
        phases = quarter_turns(dim).copy()
        phases[where] = wrong
        return phases

    monkeypatch.setattr(fourier, "_quarter_turns", one_wrong)
    report, _ = fourier_eigensystem_report(ModelParams(j=8, p=0.3))
    assert [c.passed for c in report.checks if c.name == name] == [False]


def test_multiplicity_check_reads_the_analytic_tables(monkeypatch):
    # Negating both overlap tables swaps the counts of -i and i (and of 1
    # and -1) that their traces give; J's diagonal does not move.
    name = "j=8 p=0.3 multiplicity parity rule"
    sigma = fourier._sigma
    monkeypatch.setattr(fourier, "_sigma", lambda t, p: -sigma(t, p))
    report, counts = fourier_eigensystem_report(ModelParams(j=8, p=0.3))
    assert [c.passed for c in report.checks if c.name == name] == [False]
    assert counts == expected_multiplicities(8)


@pytest.mark.parametrize("j", [0, 1, 2, 3, 4, 5, 10, 11, 300])
@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_table_traces_give_the_multiplicities(j, p):
    params = ModelParams(j, p)
    f = fourier_analytic(params)
    even, odd = np.trace(f.even), np.trace(f.odd)
    counts = np.array([j + 1 + even, j + odd, j + 1 - even, j - odd]) / 2
    assert np.abs(counts - expected_multiplicities(j)).max() < 1e-9
    report, _ = fourier._eigensystem_report(params, 1e-10, f, fourier_spectral(params))
    assert report.checks[-1].name.endswith("multiplicity parity rule")
    assert report.checks[-1].passed


_REPORT_LINES = [
    "route agreement",
    *(f"{route} {prop}" for route in ("analytic", "spectral")
      for prop in ("symmetric", "unitary", "fourth power = I")),
    "eigenvector rows (F U^T = U^T J)",
    "multiplicity parity rule",
]


@pytest.mark.parametrize("j", [0, 1])
@pytest.mark.parametrize("p", [0.3, 0.5])
def test_eigensystem_report_at_the_smallest_sizes(j, p):
    # At j = 0 the odd tables are 0 x 0 and add nothing to a residual.
    report, counts = fourier_eigensystem_report(ModelParams(j, p))
    assert report.passed, report.failures()
    assert [c.name for c in report.checks] == [f"j={j} p={p} {line}" for line in _REPORT_LINES]
    assert counts == expected_multiplicities(j)


def test_eigensystem_report_stays_in_table_space(monkeypatch):
    # Warm tables; the report's arrays are (j+1)^2 or j^2, about 2 B per
    # (2j+1)^2 entry each, where the dense report peaked at about 96.
    params = ModelParams(300, 0.3)
    fourier_analytic(params), fourier_spectral(params)
    analytic, spectral = fourier_analytic(params), fourier_spectral(params)

    def no_layout(even, odd):
        raise AssertionError("the dense layout was read")

    monkeypatch.setattr(fourier, "_fourier_blocks", no_layout)
    tracemalloc.start()
    try:
        report, _ = fourier._eigensystem_report(params, 1e-10, analytic, spectral)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed, report.failures()
    assert "data" not in vars(analytic) and "data" not in vars(spectral)
    assert peak <= 16 * params.dim ** 2


def test_entry_accessor_bounds():
    f = fourier_analytic(ModelParams(j=2, p=0.5))
    with pytest.raises(ValueError):
        f.entry(3, 0)


@pytest.mark.parametrize("k, l", [(True, 0), (0, False), (1.0, 0), (0, "1"), (None, 0)])
def test_entry_refuses_labels_that_are_not_integers(k, l):
    f = fourier_analytic(ModelParams(j=2, p=0.5))
    with pytest.raises(ValueError, match="need an integer"):
        f.entry(k, l)


def test_entry_reads_numpy_integer_labels():
    f = fourier_spectral(ModelParams(j=3, p=0.3))
    for k, l in ((np.int64(2), np.int32(-1)), (np.int16(0), np.uint8(3))):
        assert np.complex128(f.entry(k, l)).tobytes() == f.data[3 + k, 3 + l].tobytes()


@pytest.mark.parametrize("route", [fourier_analytic, fourier_spectral])
@pytest.mark.parametrize("p", [0.1, 0.5, 0.7])
def test_entry_equals_the_dense_layout_bit_for_bit(route, p):
    for j in range(21):
        f = route(ModelParams(j, p))
        labels = range(-j, j + 1)
        entries = np.array([[f.entry(k, l) for l in labels] for k in labels])
        assert entries.tobytes() == f.data.tobytes(), j


def test_entry_reads_the_tables_without_the_dense_layout(monkeypatch):
    f = fourier_spectral(ModelParams(300, 0.3))
    dense = f.data
    monkeypatch.setattr(fourier, "_fourier_blocks", None)
    g = fourier.FourierMatrix(f.even, f.odd)
    labels = [(0, 0), (0, -7), (5, 0), (3, -2), (-300, -300)]
    tracemalloc.start()
    try:
        values = [g.entry(k, l) for k, l in labels]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values == [dense[300 + k, 300 + l] for k, l in labels]
    assert peak < 2**16
