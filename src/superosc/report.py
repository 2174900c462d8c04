"""Check results and verification reports shared by the verifying modules."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CheckResult", "VerificationReport"]

# Base tolerance of the matrix-residual checks of `verify`, `run_suite` and
# `fourier_eigensystem_report`.
_DEFAULT_TOL = 1e-10


def _largest(*arrays: np.ndarray) -> float:
    # The largest |entry| over the arrays, the residual of every check; an
    # empty array (an odd table at j = 0) adds nothing. A NaN entry makes it
    # NaN for good, as nothing compares greater than NaN (Python's max drops
    # a NaN that does not come first).
    largest = 0.0
    for a in arrays:
        if a.size:
            entry = float(np.abs(a).max())
            if entry > largest or entry != entry:
                largest = entry
    return largest


@dataclass(frozen=True)
class CheckResult:
    """A single named residual check against a tolerance."""

    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: residual={self.residual:.3e} tol={self.tolerance:.1e}"


@dataclass
class VerificationReport:
    """Ordered collection of check results with an overall verdict."""

    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, residual: float, tolerance: float) -> CheckResult:
        result = CheckResult(name, float(residual), float(tolerance))
        self.checks.append(result)
        return result

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def max_residual(self) -> float:
        """The largest residual, 0.0 with no checks; NaN if any residual is NaN."""
        return _largest(np.array([check.residual for check in self.checks]))

    def failures(self) -> list[CheckResult]:
        return [check for check in self.checks if not check.passed]

    def lines(self) -> list[str]:
        body = [check.line() for check in self.checks]
        verdict = "PASS" if self.passed else "FAIL"
        body.append(f"{verdict}  overall: {len(self.checks)} checks, "
                    f"{len(self.failures())} failed")
        return body

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": check.name,
                    "residual": check.residual,
                    "tolerance": check.tolerance,
                    "passed": check.passed,
                }
                for check in self.checks
            ],
        }
