import hashlib
import math

import numpy as np
import pytest

from superosc import fourier, oscillator, specfun, suite, wavefunctions
from superosc.report import VerificationReport


def _limit_checks(report, endpoint="p->0"):
    return [c for c in report.checks if f"{endpoint} limit convergence" in c.name]


def test_p_to_zero_convergence_check_passes():
    report = VerificationReport()
    suite._fixed_checks(report, 1e-10)
    checks = _limit_checks(report)
    assert len(checks) == 7 and all(c.passed for c in checks)


def test_p_to_zero_convergence_check_catches_a_flipped_limit(monkeypatch):
    limit_U = suite.limit_U
    monkeypatch.setattr(suite, "limit_U", lambda j, side: -limit_U(j, side))
    report = VerificationReport()
    suite._fixed_checks(report, 1e-10)
    # j = 0 included: the single entry 1 becomes -1.
    assert not any(c.passed for c in _limit_checks(report))


def test_p_to_one_convergence_check_passes():
    report = VerificationReport()
    suite._fixed_checks(report, 1e-10)
    checks = _limit_checks(report, "p->1")
    assert len(checks) == 7 and all(c.passed for c in checks)


# A sign-flipped limit, and one without its (-1)^c column signs: the latter
# only differs at j >= 1, since the single column of j = 0 has sign +1.
@pytest.mark.parametrize("wrong, failing", [
    (lambda u: -u, range(7)),
    (lambda u: u * (-1.0) ** np.arange(len(u)), range(1, 7)),
])
def test_p_to_one_convergence_check_catches_a_wrong_limit(monkeypatch, wrong, failing):
    limit_U = suite.limit_U
    monkeypatch.setattr(suite, "limit_U", lambda j, side: (
        wrong(limit_U(j, side)) if side == "toward-one" else limit_U(j, side)))
    report = VerificationReport()
    suite._fixed_checks(report, 1e-10)
    assert [c.name for c in _limit_checks(report, "p->1") if not c.passed] == [
        f"j={j} p->1 limit convergence (p=1-1e-12)" for j in failing]
    assert all(c.passed for c in _limit_checks(report))


# run_suite(2, (0.5,)): a check added, dropped, renamed, moved or given a
# new tolerance changes these; update them together with the suite.
PINNED_CHECK_COUNT = 116
PINNED_CHECK_SHA256 = "5853f2154439a097ef2ac92edd914474953f3dd2d911eec86b318082e70ea1a5"


def test_verify_check_list_is_pinned():
    # Names, order and tolerances of every check, but not the residuals, which
    # move in their last digits with any reordering of floating-point work.
    report = suite.run_suite(2, (0.5,))
    listing = "\n".join(f"{c.name}|{c.tolerance!r}" for c in report.checks)
    assert report.passed
    assert len(report.checks) == PINNED_CHECK_COUNT
    assert hashlib.sha256(listing.encode()).hexdigest() == PINNED_CHECK_SHA256


def test_spectral_transform_line_catches_swapped_interior_blocks(monkeypatch):
    # Reversing F's columns swaps the parity-preserving block -(i/2) s + s'/2
    # with the parity-crossing one -(i/2) s - s'/2 and keeps the center row
    # and column: the a + b / a - b swap in the dense layout. Both routes
    # share the layout, so their agreement cannot see it, and the
    # eigensystem report reads only the tables.
    blocks = fourier._fourier_blocks
    monkeypatch.setattr(fourier, "_fourier_blocks", lambda even, odd: blocks(even, odd)[:, ::-1])
    report = VerificationReport()
    for p in (0.1, 0.3, 0.5):
        for j in range(1, 11):
            suite._sweep_checks(report, j, p, 1e-10)
    failed = [c.name.split(" ", 2)[2] for c in report.checks if not c.passed]
    assert failed.count("spectral transform = U^T J U") == 30
    assert set(failed) == {"spectral transform = U^T J U"}


def test_a_fault_in_the_shared_mirror_fold_fails_verify(monkeypatch):
    # apply_fourier and the dense layout write labels +-l through one fold;
    # swapping its halves must fail both lines that read F against U and V,
    # and no line that reads only the tables.
    unfold = fourier._unfold

    def swapped(center, even, odd, out):
        unfold(center, even, odd, out)
        j = out.shape[-1] // 2
        upper, lower = out[..., j + 1:].copy(), out[..., :j][..., ::-1].copy()
        out[..., j + 1:], out[..., :j][..., ::-1] = lower, upper

    monkeypatch.setattr(fourier, "_unfold", swapped)
    report = VerificationReport()
    for p in (0.3, 0.7):
        for j in range(1, 5):
            suite._sweep_checks(report, j, p, 1e-10)
    failed = [c.name.split(" ", 2)[2] for c in report.checks if not c.passed]
    assert failed.count("V = U F") == 8
    assert failed.count("spectral transform = U^T J U") == 8
    assert set(failed) == {"V = U F", "spectral transform = U^T J U"}


def _check(report, name):
    matches = [c for c in report.checks if c.name == name]
    assert len(matches) == 1
    return matches[0]


def _perturb_hyp2f1(monkeypatch, x, N, P, Q, k):
    # Raise coefficient k of one _hyp2f1_rational(x, N, P, Q) by 1, where the
    # suite reads it: K_k(x; Q/P, N) in both shift lines.
    hyp2f1_rational = suite._hyp2f1_rational

    def perturbed(x_, N_, P_, Q_, top=None):
        values = hyp2f1_rational(x_, N_, P_, Q_, top)
        if (x_, N_, P_, Q_) == (x, N, P, Q):
            values = values.copy()
            values[k] += 1
        return values

    monkeypatch.setattr(suite, "_hyp2f1_rational", perturbed)


def test_memoized_exact_shift_identities_catch_one_wrong_value(monkeypatch):
    name = "shift identities exact (j <= 8)"
    report = VerificationReport()
    suite._fixed_checks(report, 1e-10)
    assert _check(report, name).passed
    _perturb_hyp2f1(monkeypatch, 3, 6, 3, 1, 2)  # K_2(3; 1/3, 6)
    report = VerificationReport()
    suite._fixed_checks(report, 1e-10)
    assert not _check(report, name).passed


# (x, N, P, Q, k): a corner of the largest j at p = 1/2, the degree-0 value at
# N = 0 that only the k = 1 identities read, and a mid-grid value at p = 7/10.
@pytest.mark.parametrize("where", [(8, 8, 2, 1, 8), (0, 0, 10, 7, 0), (2, 5, 10, 7, 3)])
def test_integer_shift_identities_catch_one_wrong_value(monkeypatch, where):
    _perturb_hyp2f1(monkeypatch, *where)
    report = VerificationReport()
    suite._fixed_checks(report, 1e-10)
    assert _check(report, "shift identities exact (j <= 8)").residual >= 1.0


# (x, N, P, Q, k): a mid-grid value at p = 1/2, the last degree of a corner
# at p = 9/10, j = 30, and a degree-0 value of the (j-1) family, which only
# the k = 1 identities read.
@pytest.mark.parametrize("where", [(5, 17, 2, 1, 3), (30, 30, 10, 9, 30), (0, 16, 10, 1, 0)],
                         ids=["mid-grid", "corner", "degree-0"])
def test_integer_recurrence_shift_identity_catches_one_wrong_value(monkeypatch, where):
    name = "forward shift identity, integer recurrence (j <= 30)"
    report = VerificationReport()
    suite._fixed_checks(report, 1e-10)
    assert _check(report, name).passed
    _perturb_hyp2f1(monkeypatch, *where)
    report = VerificationReport()
    suite._fixed_checks(report, 1e-10)
    assert _check(report, name).residual >= 1.0


@pytest.mark.parametrize("wrong", [
    lambda t: -t,
    lambda t: t * np.where(np.arange(len(t)) == 1, -1.0, 1.0),  # column x = 1 only
])
def test_odd_row_table_check_catches_a_sign_flipped_builder(monkeypatch, wrong):
    name = "j=4 p=0.3 odd-row table: forward shift vs eigensolved (p, j-1)"
    report = VerificationReport()
    suite._sweep_checks(report, 4, 0.3, 1e-10)
    assert _check(report, name).passed
    shift_table = specfun._krawtchouk_shift_table
    monkeypatch.setattr(specfun, "_krawtchouk_shift_table",
                        lambda p, q, N: wrong(shift_table(p, q, N)))
    report = VerificationReport()
    suite._sweep_checks(report, 4, 0.3, 1e-10)
    assert not _check(report, name).passed
    # analytic_U reads the same builder, so its eigen-equation fails as well.
    assert not _check(report, "j=4 p=0.3 position eigen-equation").passed


def test_cached_closed_rows_still_fail_node_counts(monkeypatch):
    closed_row = wavefunctions._closed_row
    closed_row.cache_clear()
    report = VerificationReport()
    suite._sweep_checks(report, 4, 0.3, 1e-10)
    assert _check(report, "j=4 p=0.3 node counts").passed

    def flipped(j, p, level):
        values, signs = closed_row(j, p, level)
        if level == 3:
            signs = (-signs[0],) + signs[1:]
        return values, signs

    closed_row.cache_clear()
    monkeypatch.setattr(wavefunctions, "_closed_row", flipped)
    report = VerificationReport()
    suite._sweep_checks(report, 4, 0.3, 1e-10)
    assert _check(report, "j=4 p=0.3 node counts").residual == 1.0
    assert _check(report, "j=4 p=0.3 closed-form route agreement").passed
    closed_row.cache_clear()


def test_closed_row_is_built_once_per_level():
    closed_row = wavefunctions._closed_row
    closed_row.cache_clear()
    params = suite.ModelParams(6, 0.3)
    for level in range(params.dim):
        row = wavefunctions.position_wavefunction_closed(params, level)
        row[0] = 99.0  # the caller's copy; the cached row stays read-only
        assert wavefunctions.node_count(params, level) == level
    info = closed_row.cache_info()
    assert (info.misses, info.hits) == (params.dim, params.dim)
    assert not closed_row(6, 0.3, 0)[0].flags.writeable
    assert closed_row(6, 0.3, 0)[0][0] != 99.0


def test_sweep_point_builds_each_transform_once(monkeypatch):
    # The eigensystem lines read the transforms the sweep point built.
    calls = []
    for name in ("fourier_analytic", "fourier_spectral"):
        def counted(params, route=getattr(fourier, name), name=name):
            calls.append(name)
            return route(params)
        monkeypatch.setattr(fourier, name, counted)
        monkeypatch.setattr(suite, name, counted)
    report = VerificationReport()
    suite._sweep_checks(report, 5, 0.3, 1e-10)
    assert sorted(calls) == ["fourier_analytic", "fourier_spectral"]
    assert report.passed and any("route agreement" in c.name for c in report.checks)


_OVERLAP_CHECK = "S exact vs Krawtchouk(4p(1-p))"


def _overlap_checks(ps=(0.3, 0.7), js=(1, 2, 5)):
    # The cross-family overlap line at each (j, p), by its passing state.
    report = VerificationReport()
    for p in ps:
        for j in js:
            suite._sweep_checks(report, j, p, 1e-10)
    return {c.name: c.passed for c in report.checks if c.name.endswith(_OVERLAP_CHECK)}


def test_overlap_check_passes_on_every_sweep_point():
    report = suite.run_suite(suite._CLOSED_ROUTE_J_CAP + 1)
    checks = [c for c in report.checks if c.name.endswith(_OVERLAP_CHECK)]
    assert len(checks) == suite._CLOSED_ROUTE_J_CAP * len(suite.DEFAULT_P_LIST)
    assert all(c.passed for c in checks)


def _swapped(builder):
    return lambda w, q, N: builder(q, w, N)


@pytest.mark.parametrize("mutant,failing_p", [
    # sigma negated: every point fails.
    ("flipped sigma", (0.3, 0.7)),
    # (w, q) passed to the builder the wrong way round.
    ("swapped (w, q)", (0.3, 0.7)),
    # sigma applied whatever p is: the p < 1/2 points fail.
    ("sigma for every p", (0.3,)),
    # sigma never applied: the p > 1/2 points fail.
    ("sigma for no p", (0.7,)),
])
def test_overlap_check_catches_a_wrong_route(monkeypatch, mutant, failing_p):
    sigma = fourier._sigma
    if mutant == "flipped sigma":
        monkeypatch.setattr(fourier, "_sigma", lambda t, p: -sigma(t, p))
    elif mutant == "swapped (w, q)":
        monkeypatch.setattr(fourier, "_krawtchouk_table", _swapped(fourier._krawtchouk_table))
        monkeypatch.setattr(fourier, "_krawtchouk_shift_table",
                            _swapped(fourier._krawtchouk_shift_table))
    elif mutant == "sigma for every p":
        monkeypatch.setattr(fourier, "_sigma", lambda t, p: sigma(t, 1.0))
    else:
        monkeypatch.setattr(fourier, "_sigma", lambda t, p: t)
    checks = _overlap_checks()
    assert len(checks) == 6
    for name, passed in checks.items():
        p = float(name.split()[1][2:])
        assert passed == (p not in failing_p), name


@pytest.mark.parametrize("mutant,failing_p", [
    ("flipped sigma", (0.3, 0.7)),
    ("swapped (w, q)", (0.3, 0.7)),
    ("sigma for every p", (0.3,)),
    ("sigma for no p", (0.7,)),
])
def test_eigensystem_lines_catch_a_wrong_route(monkeypatch, mutant, failing_p):
    # The same faults of the analytic route, on the table-space lines that
    # read it: its agreement with the spectral route and its eigenvectors.
    sigma = fourier._sigma
    faults = {
        "flipped sigma": {"_sigma": lambda t, p: -sigma(t, p)},
        "swapped (w, q)": {name: _swapped(getattr(fourier, name))
                           for name in ("_krawtchouk_table", "_krawtchouk_shift_table")},
        "sigma for every p": {"_sigma": lambda t, p: sigma(t, 1.0)},
        "sigma for no p": {"_sigma": lambda t, p: t},
    }
    for name, value in faults[mutant].items():
        monkeypatch.setattr(fourier, name, value)
    for p in (0.3, 0.7):
        for j in (1, 2, 5):
            report, _ = fourier.fourier_eigensystem_report(suite.ModelParams(j, p))
            for line in ("route agreement", "eigenvector rows (F U^T = U^T J)"):
                assert _check(report, f"j={j} p={p} {line}").passed == (p not in failing_p)


@pytest.mark.parametrize("where, wrong", [(0, 1j), (1, -1.0), (2, 1.0), (3, -1j)])
def test_momentum_checks_catch_one_wrong_quarter_turn(monkeypatch, where, wrong):
    # The rule lives in oscillator; V = U F holds V against the overlaps,
    # which never read it.
    names = ("j=4 p=0.3 V = U F", "j=4 p=0.3 momentum eigen-equation (conjugated)")
    report = VerificationReport()
    suite._sweep_checks(report, 4, 0.3, 1e-10)
    assert all(_check(report, name).passed for name in names)
    table = oscillator._QUARTER_TURNS.copy()
    table[where] = wrong
    monkeypatch.setattr(oscillator, "_QUARTER_TURNS", table)
    report = VerificationReport()
    suite._sweep_checks(report, 4, 0.3, 1e-10)
    assert not any(_check(report, name).passed for name in names)


@pytest.mark.parametrize("where", [0, 4, 8])
def test_heisenberg_checks_catch_one_wrong_hamiltonian_entry(monkeypatch, where):
    names = [f"j=4 p=0.3 Heisenberg {which} equation" for which in ("position", "momentum")]
    report = VerificationReport()
    suite._sweep_checks(report, 4, 0.3, 1e-10)
    assert all(_check(report, name).passed for name in names)
    hamiltonian_matrix = suite.hamiltonian_matrix

    def one_wrong(j):
        mat = hamiltonian_matrix(j)
        mat[where, where] += 1.0
        return mat

    monkeypatch.setattr(suite, "hamiltonian_matrix", one_wrong)
    report = VerificationReport()
    suite._sweep_checks(report, 4, 0.3, 1e-10)
    assert not any(_check(report, name).passed for name in names)


@pytest.mark.parametrize("kwargs", [
    {"p_list": ()}, {"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0}, {"tol": -1e-10},
])
def test_run_suite_refuses_an_empty_p_list_and_a_bad_tolerance(kwargs):
    with pytest.raises(ValueError):
        suite.run_suite(1, **kwargs)
