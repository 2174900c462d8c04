import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from superosc import fourier, specfun, wavefunctions
from superosc.oracle import krawtchouk_exact
from superosc.specfun import (
    dual_hahn_table,
    krawtchouk_normalized,
    krawtchouk_shift_table,
    krawtchouk_table,
    paraboson_even_wavefunction,
)


def _krawtchouk_series(n: int, x: int, p: float, N: int) -> float:
    # K_n(x; p, N) = 2F1(-n, -x; -N; 1/p) as its float series, term by term;
    # reliable where the terms do not dwarf the sum (small N here).
    total = term = 1.0
    for s in range(min(n, x)):
        term *= (-n + s) * (-x + s) / ((-N + s) * (s + 1) * p)
        total += term
    return total


def _krawtchouk_log_weight(x: int, p: float, N: int) -> float:
    # log of the binomial weight C(N, x) p^x (1-p)^(N-x)
    return (gammaln(N + 1) - gammaln(x + 1) - gammaln(N - x + 1)
            + x * math.log(p) + (N - x) * math.log1p(-p))


def _krawtchouk_log_norm(n: int, p: float, N: int) -> float:
    # log of the squared norm n!(N-n)!/N! ((1-p)/p)^n
    return (gammaln(n + 1) + gammaln(N - n + 1) - gammaln(N + 1)
            + n * (math.log1p(-p) - math.log(p)))


def test_hyp2f1_degree_zero_is_one():
    for x, N, P, Q in ((5, 7, 2, 1), (0, 0, 3, 7), (3, 9, 10, 9)):
        assert specfun._hyp2f1_rational(x, N, P, Q)[0] == 1


def test_hyp2f1_degree_one_closed_form():
    # 2F1(-1, -x; -N; P/Q) = 1 - xP/(QN), with A[1] over the scale QN
    for x, P, Q, N in ((1, 2, 1, 1), (2, 10, 3, 4), (0, 10, 7, 9)):
        A = specfun._hyp2f1_rational(x, N, P, Q)
        assert Fraction(A[1], Q * N) == 1 - Fraction(x * P, Q * N)


def test_hyp2f1_zero_numerator_truncates():
    # x = 0 kills every s >= 1 term: the 2F1 is 1 at every degree, so A[k]
    # is its scale Q^k N!/(N-k)!
    for N, P, Q in ((3, 1, 1), (9, 10, 3)):
        assert specfun._hyp2f1_rational(0, N, P, Q) == _hyp2f1_scale(N, Q)


def test_krawtchouk_degree_zero():
    # K_0 = 1, so row 0 of the table is sqrt(w(x))
    table = krawtchouk_table(0.3, 5)
    for x in range(6):
        assert table[0, x] == pytest.approx(math.sqrt(comb(5, x) * 0.3**x * 0.7 ** (5 - x)),
                                            rel=1e-12)


def test_krawtchouk_at_origin():
    # K_n(0) = 1, so column 0 is sqrt(w(0)/h(n)) = sqrt(C(N, n) p^n (1-p)^(N-n))
    table = krawtchouk_table(0.7, 5)
    for n in range(6):
        assert table[n, 0] == pytest.approx(math.sqrt(comb(5, n) * 0.7**n * 0.3 ** (5 - n)),
                                            rel=1e-12)


def test_krawtchouk_hand_value():
    # K_1(1; 1/2, 1) = 1 - x/(pN) = -1, with w(1) = 1/2 and h(1) = 1
    assert krawtchouk_normalized(1, 1, 0.5, 1) == pytest.approx(-1 / math.sqrt(2), rel=1e-14)


def test_krawtchouk_domain_checks():
    with pytest.raises(ValueError):
        krawtchouk_normalized(4, 1, 0.5, 3)
    with pytest.raises(ValueError):
        krawtchouk_normalized(1, 1, 0.0, 3)
    with pytest.raises(ValueError):
        krawtchouk_normalized(1, 1, 1.0, 3)


@given(
    N=st.integers(min_value=0, max_value=25),
    data=st.data(),
    p_den=st.integers(min_value=2, max_value=20),
)
@settings(deadline=None)
def test_krawtchouk_degree_grid_symmetry(N, data, p_den):
    # K_n(x) = K_x(n), exactly, through the integer recurrence at p = p_num/p_den
    n = data.draw(st.integers(min_value=0, max_value=N))
    x = data.draw(st.integers(min_value=0, max_value=N))
    p_num = data.draw(st.integers(min_value=1, max_value=p_den - 1))
    scale = _hyp2f1_scale(N, p_num)
    assert (Fraction(specfun._hyp2f1_rational(x, N, p_den, p_num)[n], scale[n])
            == Fraction(specfun._hyp2f1_rational(n, N, p_den, p_num)[x], scale[x]))


def test_weight_at_zero():
    for p, N in ((0.5, 2), (0.3, 7)):
        assert krawtchouk_table(p, N)[0, 0] ** 2 == pytest.approx((1 - p) ** N, rel=1e-12)


def test_weighted_sum_matches_norm():
    # sum_x w(x) K_1(x)^2 = h(1) = 1/2 at p = 1/2, N = 2, in exact arithmetic
    total = sum(Fraction(comb(2, x), 4) * Fraction(specfun._hyp2f1_rational(x, 2, 2, 1)[1], 2) ** 2
                for x in range(3))
    assert total == Fraction(1, 2)


def test_normalized_corner_values():
    assert krawtchouk_normalized(0, 0, 0.3, 4) == pytest.approx(0.7 ** 2, rel=1e-12)
    assert krawtchouk_normalized(1, 0, 0.5, 1) == pytest.approx(1 / math.sqrt(2), rel=1e-12)


def test_normalized_matches_weight_norm_product():
    p, N = 0.35, 9
    for n in range(N + 1):
        for x in range(N + 1):
            direct = math.exp(0.5 * (_krawtchouk_log_weight(x, p, N)
                                     - _krawtchouk_log_norm(n, p, N))) * _krawtchouk_series(n, x, p, N)
            assert krawtchouk_normalized(n, x, p, N) == pytest.approx(
                direct, rel=1e-9, abs=1e-12
            )


@given(
    N=st.integers(min_value=0, max_value=40),
    p=st.floats(min_value=0.05, max_value=0.95),
)
@settings(deadline=None, max_examples=40)
def test_krawtchouk_table_orthogonal(N, p):
    table = krawtchouk_table(p, N)
    gram = table @ table.T
    assert np.abs(gram - np.eye(N + 1)).max() < 1e-10


def test_krawtchouk_table_symmetric_and_readonly():
    table = krawtchouk_table(0.25, 12)
    assert np.abs(table - table.T).max() < 1e-12
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


def test_krawtchouk_table_row_zero_positive():
    # row 0 is sqrt(w(x)), strictly positive
    table = krawtchouk_table(0.6, 15)
    assert (table[0] > 0).all()


_SHIFT_CASES = [(N, p) for N in (1, 2, 6, 30, 150, 400, 700)
                for p in (1e-12, 1e-6, 1e-3, 0.1, 0.37, 0.5, 0.9, 1 - 1e-6, 1 - 1e-12)]
_SHIFT_CASES += [(2000, 1e-6), (2000, 0.37)]


@pytest.mark.parametrize("N, p", _SHIFT_CASES)
def test_shift_table_matches_the_eigensolved_table(N, p):
    derived = krawtchouk_shift_table(p, N)
    solved = krawtchouk_table(p, N - 1)
    assert derived.shape == solved.shape
    assert np.abs(derived - solved).max() <= 1e-12
    columns = np.arange(N)
    peak = np.argmax(np.abs(solved), axis=0)
    assert np.array_equal(np.sign(derived[peak, columns]), np.sign(solved[peak, columns]))


@pytest.mark.parametrize("N, p", _SHIFT_CASES)
def test_shift_table_columns_have_unit_norm(N, p):
    # Dual orthogonality: sum_k K~_k(x)^2 = 1 for each x. The bound is the
    # rounding of numpy's pairwise sum of squares; the unscaled forward
    # shift carries the eigensolver's error on top and misses it.
    derived = krawtchouk_shift_table(p, N)
    bound = 2 * np.finfo(float).eps * math.log2(N + 1)
    assert np.abs(np.sum(derived * derived, axis=0) - 1.0).max() <= bound


def test_shift_table_validates_and_is_readonly():
    for p, N in ((0.0, 3), (1.0, 3)):
        with pytest.raises(ValueError):
            krawtchouk_shift_table(p, N)
    # At N = 0 the (p, -1) family is empty.
    empty = krawtchouk_shift_table(0.5, 0)
    assert empty.shape == (0, 0) and not empty.flags.writeable
    table = krawtchouk_shift_table(0.25, 12)
    assert table.shape == (12, 12)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


def _dual_hahn_series(n: int, x: int, gamma: float, delta: float, N: int) -> float:
    # R_n(lambda(x)) = 3F2(-n, -x, x+gamma+delta+1; -N, gamma+1; 1) as its
    # float series; reliable at small degree.
    total = term = 1.0
    for s in range(min(n, x)):
        term *= ((-n + s) * (-x + s) * (x + gamma + delta + 1 + s)
                 / ((-N + s) * (gamma + 1 + s) * (s + 1)))
        total += term
    return total


def test_dual_hahn_degree_zero_and_origin():
    # R_0 = 1 and R_n(lambda(0)) = 1: row 0 and column 0 are sqrt(w(x)/h(n))
    gamma, delta, N = 1.5, 2.5, 6
    table = dual_hahn_table(gamma, delta, N)
    for x in range(N + 1):
        assert table[0, x] == pytest.approx(math.exp(0.5 * (
            _dual_hahn_log_weight(x, gamma, delta, N) - _dual_hahn_log_norm(0, gamma, delta, N))),
            rel=1e-12)
    for n in range(N + 1):
        assert table[n, 0] == pytest.approx(math.exp(0.5 * (
            _dual_hahn_log_weight(0, gamma, delta, N) - _dual_hahn_log_norm(n, gamma, delta, N))),
            rel=1e-12)


@pytest.mark.parametrize("gamma, delta, name", [
    (math.nan, 1.0, "gamma"), (math.inf, 1.0, "gamma"), (-1.0, 1.0, "gamma"),
    (1.0, math.nan, "delta"), (1.0, math.inf, "delta"), (1.0, -1.0, "delta"),
])
def test_dual_hahn_table_names_a_bad_parameter(gamma, delta, name):
    with pytest.raises(ValueError, match=f"{name}="):
        dual_hahn_table(gamma, delta, 5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma, delta", [(1e308, 1e308), (1e308, 1.0), (1.0, 1e307)])
def test_dual_hahn_table_refuses_overflowing_coefficients(gamma, delta):
    with pytest.raises(ValueError, match="gamma=.* and delta=.* overflow"):
        dual_hahn_table(gamma, delta, 20)


def test_tables_of_degree_zero_are_one():
    for table in (krawtchouk_table(0.1, 0), krawtchouk_table(0.9, 0),
                  dual_hahn_table(0.5, 2.0, 0), dual_hahn_table(1e5, 3.0, 0)):
        assert table.tobytes() == np.array([[1.0]]).tobytes()
        assert not table.flags.writeable


def test_dual_hahn_table_orthogonal():
    for gamma, delta in ((0.5, 0.5), (3.0, 7.0)):
        table = dual_hahn_table(gamma, delta, 25)
        assert np.abs(table @ table.T - np.eye(26)).max() < 1e-10


def _dual_hahn_log_weight(x: int, gamma: float, delta: float, N: int) -> float:
    pre = 0.0 if x == 0 else math.log((2 * x + gamma + delta + 1) / (x + gamma + delta + 1))
    return (pre + gammaln(gamma + 1 + x) - gammaln(gamma + 1) + 2 * gammaln(N + 1)
            - (gammaln(x + gamma + delta + 2 + N) - gammaln(x + gamma + delta + 2))
            - (gammaln(delta + 1 + x) - gammaln(delta + 1))
            - gammaln(x + 1) - gammaln(N - x + 1))


def _dual_hahn_log_norm(n: int, gamma: float, delta: float, N: int) -> float:
    return (gammaln(n + 1) + gammaln(N - n + 1) + gammaln(gamma + 1) + gammaln(delta + 1)
            - gammaln(gamma + n + 1) - gammaln(delta + N - n + 1))


def test_dual_hahn_normalized_matches_series_at_small_degree():
    # pointwise float series is reliable at low degree; the table must agree
    gamma, delta, N = 2.0, 3.0, 10
    for n in range(3):
        for x in range(N + 1):
            direct = _dual_hahn_series(n, x, gamma, delta, N) * math.exp(
                0.5 * (_dual_hahn_log_weight(x, gamma, delta, N)
                       - _dual_hahn_log_norm(n, gamma, delta, N))
            )
            assert dual_hahn_table(gamma, delta, N)[n, x] == pytest.approx(
                direct, rel=1e-8, abs=1e-10
            )


def test_large_alpha_collapses_to_krawtchouk():
    alpha, j, p = 1e6, 20, 0.5
    gamma, delta = 2 * p * alpha, 2 * (1 - p) * alpha
    gap = max(
        abs(dual_hahn_table(gamma, delta, j)[n, k] - krawtchouk_normalized(n, k, p, j))
        for n in range(j + 1)
        for k in range(j + 1)
    )
    assert gap <= 1e-4


def test_laguerre_low_degrees():
    # L_n^(a)(x) = ((a+1)_n / n!) 1F1(-n; a+1; x): L_0 = 1, L_1 = a + 1 - x
    assert specfun._hyp1f1_series(0, 1.7, 3.2) == 1.0
    for a, x in ((0.5, 0.0), (2.0, 1.5), (7.3, 4.0)):
        assert (a + 1) * specfun._hyp1f1_series(1, a, x) == pytest.approx(a + 1 - x, rel=1e-13)


def test_laguerre_kummer_identity():
    # 1F1(-n; 2pa+1; x^2) = n!/(2pa+1)_n L_n^(2pa)(x^2), with L as its
    # explicit sum (-y)^m/m! (m+a+1)_(n-m)/(n-m)! in exact rationals
    p, alpha = 0.4, 3.0
    a = 2 * p * alpha
    fa = Fraction(a)
    for n in range(6):
        for x in (0.3, 1.1, 2.7):
            y = Fraction(x * x)
            laguerre = sum((-y) ** m / factorial(m) / factorial(n - m)
                           * math.prod(fa + i for i in range(m + 1, n + 1))
                           for m in range(n + 1))
            poch = math.prod(fa + i for i in range(1, n + 1))
            assert specfun._hyp1f1_series(n, a, x * x) == pytest.approx(
                float(factorial(n) / poch * laguerre), rel=1e-12
            )


def test_paraboson_vanishes_at_origin():
    for n in range(3):
        assert paraboson_even_wavefunction(n, 0.8, 0.0) == 0.0


def test_paraboson_vanishes_where_its_series_is_zero():
    # At n = 1, c = 3 the series 1 - x^2/(c+1) is exactly 0 at x = 2, where
    # its logarithm is undefined.
    assert paraboson_even_wavefunction(1, 3.0, 2.0) == 0.0


def test_paraboson_ground_state_closed_form():
    c = 1.4
    for x in (0.2, 1.0, 2.5, -1.3):
        expected = (
            math.sqrt(1.0 / math.gamma(c + 1))
            * abs(x) ** (c + 0.5)
            * math.exp(-x * x / 2)
        )
        assert paraboson_even_wavefunction(0, c, x) == pytest.approx(expected, rel=1e-12)


def test_paraboson_normalized_on_real_line():
    xs = np.linspace(-10.0, 10.0, 20001)
    for n, c in ((0, 0.6), (1, 1.4), (2, 3.0), (3, 0.9)):
        vals = np.array([paraboson_even_wavefunction(n, c, x) for x in xs])
        integral = np.trapezoid(vals * vals, xs)
        assert integral == pytest.approx(1.0, abs=1e-6)


def test_paraboson_large_parameter_stays_finite():
    # |x|^(c+1/2) alone overflows here; the log-space route must not
    v = paraboson_even_wavefunction(2, 1e6, 316.0)
    assert math.isfinite(v)


def test_paraboson_domain_checks():
    with pytest.raises(ValueError):
        paraboson_even_wavefunction(-1, 1.0, 0.5)
    with pytest.raises(ValueError):
        paraboson_even_wavefunction(0, 0.0, 0.5)
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite c"):
            paraboson_even_wavefunction(1, c, 0.5)


def _exact_sign(value) -> int:
    return int(value > 0) - int(value < 0)


def _krawtchouk_exact_sign(n: int, x: int, P: int, Q: int, N: int) -> int:
    # Sign of K_n(x; P/Q, N) from the integer form of the three-term
    # recurrence, A_n = (PQ)^n n! K_n: exact at any N, unlike the capped
    # rational series of the oracle it is checked against below.
    if n == 0:
        return 1
    a_prev, a = 1, P * N - x * Q
    for m in range(1, n):
        a_prev, a = a, (P * (N - m) + m * (Q - P) - x * Q) * a \
            - m * (Q - P) * P * (N - m + 1) * a_prev
    return _exact_sign(a)


def _dual_hahn_3f2(n: int, x: int, gamma: Fraction, delta: Fraction, N: int) -> Fraction:
    # R_n(lambda(x); gamma, delta, N), the 3F2 series in rationals.
    total = term = Fraction(1)
    for s in range(min(n, x)):
        term = term * (-n + s) * (-x + s) * (x + gamma + delta + 1 + s) \
            / ((-N + s) * (gamma + 1 + s) * (s + 1))
        total += term
    return total


def _dual_hahn_exact_sign(n: int, x: int, gamma: Fraction, delta: Fraction, N: int) -> int:
    return _exact_sign(_dual_hahn_3f2(n, x, gamma, delta, N))


def _rising(a: Fraction, k: int) -> Fraction:
    return math.prod((a + i for i in range(k)), start=Fraction(1))


def _dual_hahn_exact(n: int, x: int, gamma: Fraction, delta: Fraction, N: int) -> float:
    # R~_n(lambda(x)) = R_n(lambda(x)) sqrt(w(x) C(gamma+n, n) C(delta+N-n, N-n))
    # (Koekoek, Lesky & Swarttouw 9.6.2), whose square is an exact rational
    # for rational gamma and delta; rounded once, through a 40-digit root.
    shift = gamma + delta + 1
    weight = ((2 * x + shift) * _rising(gamma + 1, x) * math.factorial(N) ** 2
              / (math.factorial(N - x) * _rising(x + shift, N + 1) * _rising(delta + 1, x)
                 * math.factorial(x)))
    norm = (_rising(gamma + 1, n) / math.factorial(n)
            * _rising(delta + 1, N - n) / math.factorial(N - n))
    value = _dual_hahn_3f2(n, x, gamma, delta, N)
    square = value * value * weight * norm
    with localcontext() as context:
        context.prec = 40
        magnitude = (Decimal(square.numerator) / Decimal(square.denominator)).sqrt()
    return _exact_sign(value) * float(magnitude)


def _weak_columns(table: np.ndarray) -> np.ndarray:
    # The hard columns: those whose row-0 and row-N entries are both below
    # 1e-8, so that neither end row could sign them.
    N = table.shape[0] - 1
    return np.nonzero((np.abs(table[0]) < 1e-8) & (np.abs(table[N]) < 1e-8))[0]


def test_integer_krawtchouk_sign_matches_oracle():
    for N in (1, 5, 12):
        for P, Q in ((1, 10), (1, 2), (7, 10)):
            for n in range(N + 1):
                for x in range(N + 1):
                    assert _krawtchouk_exact_sign(n, x, P, Q, N) == \
                        _exact_sign(krawtchouk_exact(n, x, P, Q, N))


def _sampled_weak_columns(table: np.ndarray, size: int) -> list[int]:
    # A seeded sample of the weak columns (all of them if there are fewer),
    # as Python ints for the exact sign evaluators.
    weak = _weak_columns(table)
    rng = np.random.default_rng(len(table))
    return rng.choice(weak, min(size, len(weak)), replace=False).tolist()


def _krawtchouk_sign_misses(table: np.ndarray, P: int, Q: int, columns) -> list[int]:
    # Columns whose largest entry differs in sign from the exact K~_n(x; P/Q, N).
    N = table.shape[0] - 1
    ns = np.argmax(np.abs(table), axis=0)
    return [x for x in columns
            if _exact_sign(table[ns[x], x]) != _krawtchouk_exact_sign(int(ns[x]), x, P, Q, N)]


# At N = 700 a seeded sample of weak columns, where the neighbour links of
# the benchmark's large-j sizes sign them; at N <= 200 every column.
@pytest.mark.parametrize("N", [120, 200, 700])
@pytest.mark.parametrize("P,Q", [(1, 10), (1, 2), (3, 10)])
def test_krawtchouk_table_signs_where_anchors_fail(N, P, Q):
    table = krawtchouk_table(P / Q, N)
    assert len(_weak_columns(table)) > 0
    columns = _sampled_weak_columns(table, 8) if N > 200 else range(N + 1)
    assert _krawtchouk_sign_misses(table, P, Q, columns) == []


def _dual_hahn_sign_misses(table: np.ndarray, gamma: float, delta: float, columns) -> list[int]:
    # Columns whose largest entry differs in sign from the exact R~_n(lambda(x)).
    N = table.shape[0] - 1
    ns = np.argmax(np.abs(table), axis=0)
    return [x for x in columns
            if _exact_sign(table[ns[x], x])
            != _dual_hahn_exact_sign(int(ns[x]), x, Fraction(gamma), Fraction(delta), N)]


def test_dual_hahn_table_signs_where_anchors_fail():
    # (gamma, delta) = (2p alpha, 2(1-p) alpha) of paraboson_limit_table at
    # alpha = 1000, p = 0.3
    gamma, delta, N = 600.0, 1400.0, 200
    table = dual_hahn_table(gamma, delta, N)
    assert len(_weak_columns(table)) > 0
    assert _dual_hahn_sign_misses(table, gamma, delta, range(N + 1)) == []


def test_dual_hahn_paraboson_table_signs_on_a_sample():
    # verify's paraboson comparison at j = 400: alpha = 10, p = 1/2
    gamma, delta, N = 10.0, 10.0, 400
    table = dual_hahn_table(gamma, delta, N)
    columns = _sampled_weak_columns(table, 8)
    assert len(columns) == 8
    assert _dual_hahn_sign_misses(table, gamma, delta, columns) == []


def _spy_sign_hooks(monkeypatch) -> list[str]:
    # Record each call of the Sturm-count sign hooks, from cold caches.
    specfun._krawtchouk_table.cache_clear()
    specfun._dual_hahn_table.cache_clear()
    calls = []
    for name in ("_krawtchouk_sign", "_dual_hahn_sign"):
        def spy(*args, _hook=getattr(specfun, name), _name=name, **kwargs):
            calls.append(_name)
            return _hook(*args, **kwargs)
        monkeypatch.setattr(specfun, name, spy)
    return calls


# The benchmark's large-j table sizes: every column, the weak ones too, is
# signed through the neighbour links, with no Sturm count.
@pytest.mark.parametrize("build,args", [
    (krawtchouk_table, (0.1, 450)), (krawtchouk_table, (0.5, 700)),
    (dual_hahn_table, (10.0, 10.0, 400)), (dual_hahn_table, (600.0, 1400.0, 100)),
], ids=["K-0.1-450", "K-0.5-700", "D-10-10-400", "D-600-1400-100"])
def test_weak_columns_signed_by_links_without_the_sign_hooks(monkeypatch, build, args):
    calls = _spy_sign_hooks(monkeypatch)
    table = build(*args)
    assert len(_weak_columns(table)) > 0
    assert calls == []


@pytest.mark.parametrize("N", [40, 200])
def test_untrusted_links_fall_back_to_the_sturm_count(monkeypatch, N):
    # At p = 1e-30 every neighbour link, about sqrt(p(x+1)(N-x)), is below
    # the floor, so each column after column 0 starts a chain of its own and
    # takes the Sturm count, all in one hook call.
    calls = _spy_sign_hooks(monkeypatch)
    table = krawtchouk_table(1e-30, N)
    assert calls == ["_krawtchouk_sign"]
    assert _krawtchouk_sign_misses(table, 1, 10**30, range(N + 1)) == []


# Every link carries signs: negating one flips every column after it, which
# the exact signs catch, at sizes where no column is weak too.
@pytest.mark.parametrize("N", [12, 41, 200])
@pytest.mark.parametrize("which", ["first", "middle", "last"])
def test_exact_signs_catch_one_negated_link(monkeypatch, which, N):
    P, Q = 1, 2
    k = {"first": 0, "middle": N // 2, "last": N - 1}[which]
    links = specfun._neighbour_links

    def negated(vecs):
        link = links(vecs)
        link[k] = -link[k]
        return link

    monkeypatch.setattr(specfun, "_neighbour_links", negated)
    # The uncached builder, so that no wrong table is left in the cache.
    table = specfun._krawtchouk_table.__wrapped__(P / Q, 1.0 - P / Q, N)
    assert _krawtchouk_sign_misses(table, P, Q, range(N + 1)) == list(range(k + 1, N + 1))


def _solver_with_negated_columns(monkeypatch):
    # eigh_tridiagonal, with a seeded subset of its eigenvector columns (and
    # always column 0) negated.
    solve = specfun.eigh_tridiagonal

    def negating(diag, off):
        values, vecs = solve(diag, off)
        negate = np.random.default_rng(len(diag)).random(len(diag)) < 0.5
        negate[0] = True
        vecs[:, negate] *= -1.0
        return values, vecs

    monkeypatch.setattr(specfun, "eigh_tridiagonal", negating)


# At p = 1e-30 the Sturm count signs every column but column 0.
@pytest.mark.parametrize("N", [0, 1, 12, 41, 250])
@pytest.mark.parametrize("p", [1e-30, 0.3, 0.5, 1 - 1e-12])
def test_krawtchouk_signs_ignore_the_solver_column_signs(monkeypatch, p, N):
    build = specfun._krawtchouk_table.__wrapped__
    expected = build(p, 1.0 - p, N).tobytes()
    _solver_with_negated_columns(monkeypatch)
    assert build(p, 1.0 - p, N).tobytes() == expected


@pytest.mark.parametrize("gamma,delta,N", [(10.0, 10.0, 200), (600.0, 1400.0, 100)])
def test_dual_hahn_signs_ignore_the_solver_column_signs(monkeypatch, gamma, delta, N):
    build = specfun._dual_hahn_table.__wrapped__
    expected = build(gamma, delta, N).tobytes()
    _solver_with_negated_columns(monkeypatch)
    assert build(gamma, delta, N).tobytes() == expected


# The column path against the full table. A column of the other sign would
# differ from it by twice its largest entry, at least 2/sqrt(N+1), so the
# bound also pins every column's sign.
@pytest.mark.parametrize("family,a,b,N", [
    *(("krawtchouk", p, 1.0 - p, N) for p in (1e-30, 1e-12, 0.3, 0.5, 0.9, 1 - 1e-12)
      for N in (1, 2, 15, 200, 2000)),
    ("dual Hahn", 10.0, 10.0, 1), ("dual Hahn", 6.0, 14.0, 15), ("dual Hahn", 10.0, 10.0, 400),
    ("dual Hahn", 600.0, 1400.0, 100), ("dual Hahn", 6.0, 14.0, 2000),
])
def test_leading_columns_match_the_full_table(family, a, b, N):
    m = min(16, N + 1)
    columns = specfun._leading_columns(family, a, b, N, m)
    build = specfun._krawtchouk_table if family == "krawtchouk" else specfun._dual_hahn_table
    assert columns.shape == (N + 1, m) and not columns.flags.writeable
    assert np.abs(columns - build.__wrapped__(a, b, N)[:, :m]).max() <= 2e-13


def test_leading_krawtchouk_columns_at_least_as_exact_as_the_full_table():
    # A seeded sweep to N = 2000: four of the 16 columns of each, at p with
    # small denominators, where the exact values are cheap.
    rng = np.random.default_rng(3)
    for N in (2000, *rng.integers(41, 2000, size=4).tolist()):
        p = float(rng.choice([0.5, 0.25, 0.75, 0.2, 0.8]))
        xs = sorted(rng.choice(16, 4, replace=False).tolist())
        P, D = specfun._ratio(p)
        exact = np.array([[sign * mag for sign, mag in specfun._krawtchouk_exact(x, N, P, D)]
                          for x in xs]).T
        columns = specfun._leading_columns.__wrapped__("krawtchouk", p, 1.0 - p, N, 16)
        full = specfun._krawtchouk_table.__wrapped__(p, 1.0 - p, N)
        assert np.abs(columns[:, xs] - exact).max() <= np.abs(full[:, xs] - exact).max()


# The benchmark's limits shapes, (p, alpha, j) = (1/2, 10, 60) and
# (0.3 or 0.7, 1000, 100): rows 0..2 at lattice points 1..15, as limits reads
# them, against exact rational values.
@pytest.mark.parametrize("p,alpha,N", [(0.5, 10.0, 60), (0.3, 1000.0, 100), (0.7, 1000.0, 100)])
def test_leading_dual_hahn_columns_at_least_as_exact_as_the_full_table(p, alpha, N):
    gamma, delta = 2.0 * p * alpha, 2.0 * (1.0 - p) * alpha
    exact = np.array([[_dual_hahn_exact(n, x, Fraction(gamma), Fraction(delta), N)
                       for x in range(1, 16)] for n in range(3)])
    columns = specfun._leading_columns.__wrapped__("dual Hahn", gamma, delta, N, 16)
    full = specfun._dual_hahn_table.__wrapped__(gamma, delta, N)
    assert np.abs(columns[:3, 1:] - exact).max() <= np.abs(full[:3, 1:16] - exact).max()


@pytest.mark.parametrize("N", [41, 200])
@pytest.mark.parametrize("k", [0, 7, 14])
def test_column_path_exact_signs_catch_one_negated_link(monkeypatch, k, N):
    links = specfun._neighbour_links

    def negated(vecs):
        link = links(vecs)
        link[k] = -link[k]
        return link

    monkeypatch.setattr(specfun, "_neighbour_links", negated)
    columns = specfun._leading_columns.__wrapped__("krawtchouk", 0.5, 0.5, N, 16)
    assert _krawtchouk_sign_misses(columns, 1, 2, range(16)) == list(range(k + 1, 16))


@pytest.mark.parametrize("N", [40, 200, 2000])
def test_column_path_falls_back_to_the_sturm_count(monkeypatch, N):
    calls = _spy_sign_hooks(monkeypatch)
    columns = specfun._leading_columns.__wrapped__("krawtchouk", 1e-30, 1.0, N, 16)
    assert calls == ["_krawtchouk_sign"]
    assert _krawtchouk_sign_misses(columns, 1, 10**30, range(16)) == []


@pytest.mark.parametrize("family,a,b", [("krawtchouk", 1e-30, 1.0), ("krawtchouk", 0.3, 0.7),
                                        ("dual Hahn", 10.0, 10.0), ("dual Hahn", 600.0, 1400.0)])
def test_column_path_ignores_the_solver_column_signs(monkeypatch, family, a, b):
    build = partial(specfun._leading_columns.__wrapped__, family, a, b, 200, 16)
    expected = build().tobytes()
    solve = specfun.dstein

    def negating(*args):
        vecs, info = solve(*args)
        vecs[:, ::3] *= -1.0
        return vecs, info

    monkeypatch.setattr(specfun, "dstein", negating)
    assert build().tobytes() == expected


@pytest.mark.parametrize("p", [1e-12, 0.3, 0.5, 0.9, 1 - 1e-12])
def test_public_tables_are_the_pq_form_at_one_minus_p(p):
    # The public builders pass (p, 1.0 - p) to the (p, q) form and share its
    # cache entries.
    for N in (0, 1, 7, 40):
        assert specfun.krawtchouk_table(p, N) is specfun._krawtchouk_table(p, 1.0 - p, N)
        if N:
            assert (specfun.krawtchouk_shift_table(p, N)
                    is specfun._krawtchouk_shift_table(p, 1.0 - p, N))


def test_table_caches_are_bounded():
    for cache in (specfun._krawtchouk_table, specfun._krawtchouk_shift_table,
                  specfun._dual_hahn_table, specfun._leading_columns, fourier._S_table,
                  specfun._ratio, wavefunctions._closed_row):
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and maxsize >= 6
        assert maxsize == specfun._CACHE_SIZE


def _hyp2f1_fraction(k: int, l: int, j: int, z: Fraction) -> Fraction:
    # Exact 2F1(-k, -l; -j; z) as its defining sum
    #   sum_s (-1)^s C(k,s) C(l,s) / C(j,s) z^s,  s = 0..t = min(k, l),
    # each term put over the common denominator j! Q^t for z = P/Q, where
    # 1/C(j,s) = s! (j-s)! / j!: the reference for the integer recurrence.
    P, Q = z.numerator, z.denominator
    t = min(k, l)
    total = sum((-1) ** s * comb(k, s) * comb(l, s) * factorial(s) * factorial(j - s)
                * P**s * Q ** (t - s) for s in range(t + 1))
    return Fraction(total, factorial(j) * Q**t)


def _hyp2f1_scale(N: int, Q: int) -> list[int]:
    # D[k] = Q^k N!/(N-k)!, the denominator of the recurrence's A[k].
    return [Q**k * math.perm(N, k) for k in range(N + 1)]


@pytest.mark.parametrize("p_num,p_den", [(1, 3), (1, 2), (7, 10)])
def test_hyp2f1_recurrence_matches_oracle(p_num, p_den):
    # K_k(x; p, N) = 2F1(-k, -x; -N; 1/p), so P/Q = p_den/p_num.
    for N in range(13):
        for x in range(N + 1):
            A, D = specfun._hyp2f1_rational(x, N, p_den, p_num), _hyp2f1_scale(N, p_num)
            assert len(A) == N + 1
            for k in range(N + 1):
                assert Fraction(A[k], D[k]) == krawtchouk_exact(k, x, p_num, p_den, N)


# z = 1/p at p = 0.1, z = 1/(4p(1-p)) at p = 0.37, and a z below 1
@pytest.mark.parametrize("P,Q", [(10, 1), (10000, 9324), (3, 7)])
@pytest.mark.parametrize("N", [1, 2, 9, 25, 40])
def test_hyp2f1_recurrence_matches_fraction_sum(P, Q, N):
    z = Fraction(P, Q)
    for x in range(N + 1):
        A, D = specfun._hyp2f1_rational(x, N, P, Q), _hyp2f1_scale(N, Q)
        assert [Fraction(a, d) for a, d in zip(A, D)] == \
            [_hyp2f1_fraction(k, x, N, z) for k in range(N + 1)]
        for top in range(N + 1):
            assert specfun._hyp2f1_rational(x, N, P, Q, top) == A[:top + 1]


def _S_fraction(k: int, l: int, j: int, p: float) -> float:
    # The closed overlap with its square formed as one Fraction.
    pf = Fraction(p).limit_denominator(10**15)
    w, one_minus_2p = 4 * pf * (1 - pf), 1 - 2 * pf
    hyp = _hyp2f1_fraction(k, l, j, 1 / w)
    square = (Fraction(comb(j, k) * comb(j, l)) * w ** (k + l)
              * one_minus_2p ** (2 * (j - k - l)) * hyp * hyp)
    sign = (hyp > 0) - (hyp < 0)
    if (j - k - l) % 2 and one_minus_2p < 0:
        sign = -sign
    return sign * math.sqrt(float(square))


def _closed_row_fraction(j: int, p: float, level: int) -> tuple[np.ndarray, tuple[int, ...]]:
    # The closed position row with each value's square formed as one
    # Fraction, w(n)/h(m) K_m(n)^2 at p over N = j - odd, each 2F1 an exact
    # Fraction sum; rounded once, square rooted, then times (-1)^n and, off
    # the center, 1/sqrt(2).
    values, signs = np.zeros(2 * j + 1), [0] * (2 * j + 1)
    pf = Fraction(p).limit_denominator(10**15)
    n, odd = level // 2, level % 2
    N = j - odd
    s0, mirror = (-1) ** n, (-1) ** odd
    for k in range(odd, j + 1):
        m = k - odd
        hyp = _hyp2f1_fraction(m, n, N, 1 / pf)
        if hyp == 0:
            continue
        square = (comb(N, n) * comb(N, m) * pf ** (n + m) * (1 - pf) ** (N - n - m)
                  * hyp * hyp)
        sign = s0 * (1 if hyp > 0 else -1)
        if k == 0:
            values[j], signs[j] = sign * math.sqrt(float(square)), sign
            continue
        value = sign * (1.0 / math.sqrt(2.0)) * math.sqrt(float(square))
        values[j + k], values[j - k] = value, mirror * value
        signs[j + k], signs[j - k] = sign, mirror * sign
    return values, tuple(signs)


@pytest.mark.parametrize("p", [0.1, 0.25, 0.37, 0.7])
def test_closed_routes_bit_identical_to_fraction_sums(p):
    # p = 0.25 puts exact zeros in the overlap tables; every p puts some in
    # the closed rows.
    for j in [*range(21), 30, 41, 60]:
        # The reference sum is symmetric in k and l term by term.
        expected = np.zeros((j + 1, j + 1))
        for k in range(j + 1):
            expected[k, :k + 1] = expected[:k + 1, k] = [_S_fraction(k, l, j, p)
                                                         for l in range(k + 1)]
        assert fourier._S_table(p, j).tobytes() == expected.tobytes()
        for level in range(2 * j + 1):
            values, signs = wavefunctions._closed_row(j, p, level)
            ref_values, ref_signs = _closed_row_fraction(j, p, level)
            assert values.tobytes() == ref_values.tobytes()
            assert signs == ref_signs


@pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.7, 0.123456789])
def test_single_overlap_equals_its_table_entry(p):
    for j in (0, 1, 2, 7, 30, 41):
        table = fourier._S_table(p, j)
        single = np.array([[fourier.S_closed(k, l, p, j) for l in range(j + 1)]
                           for k in range(j + 1)])
        assert single.tobytes() == table.tobytes()


def test_exact_zero_overlaps_are_positive_zeros():
    # 1 - 2p < 0 flips the sign of odd j-k-l; an exact zero stays +0.0.
    j, p = 200, 0.7
    table = fourier._S_table(p, j)
    for k, l in ((1, 168), (32, 199)):
        assert _hyp2f1_fraction(k, l, j, 1 / (4 * Fraction(7, 10) * Fraction(3, 10))) == 0
        for value in (table[k, l], table[l, k], fourier.S_closed(k, l, p, j),
                      fourier.S_closed(l, k, p, j), _S_fraction(k, l, j, p)):
            assert value == 0.0 and math.copysign(1.0, value) > 0
