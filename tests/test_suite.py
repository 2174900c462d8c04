from superosc import suite
from superosc.report import VerificationReport


def _limit_checks(report):
    return [c for c in report.checks if "p->0 limit convergence" in c.name]


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
