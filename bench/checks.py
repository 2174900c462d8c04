"""Correctness checks of each request's output, run outside the timed region.

Every check is independent of the route being timed: the grid, the
position off-diagonals, the tridiagonal products and the exact Krawtchouk
signs are the benchmark's own; the exact routes are compared with the
spectral route, CLI text is parsed back into numbers. Each check costs at
most O(j^2) per request, never a dense (2j+1)^3 product at large j.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np

# Matrix residuals of a correct build sit near 1e-13 at j = 900.
TOL = 1e-9
# Unit norms and mirror parities of single rows.
ROW_TOL = 1e-12


class Checker:
    """Collects the residuals and failures of one request's checks."""

    def __init__(self) -> None:
        self.worst = 0.0
        self.failures: list[str] = []

    def near(self, name: str, residual: float, tol: float) -> None:
        residual = float(residual)
        self.worst = max(self.worst, residual if math.isfinite(residual) else math.inf)
        if not residual <= tol:
            self.failures.append(f"{name}: residual {residual:.3e} > tol {tol:.1e}")

    def require(self, name: str, condition: bool) -> None:
        if not condition:
            self.failures.append(name)


def grid(j: int) -> np.ndarray:
    """The shared eigenvalue grid sign(k) sqrt(|k|), k = -j..j."""
    k = np.arange(-j, j + 1)
    return np.sign(k) * np.sqrt(np.abs(k))


def position_offdiag(j: int, p: float) -> np.ndarray:
    """Off-diagonals sqrt(p(j+1-k)), sqrt((1-p)k) of the position operator."""
    k = np.arange(1, j + 1)
    off = np.empty(2 * j)
    off[0::2] = np.sqrt(p * (j + 1 - k))
    off[1::2] = np.sqrt((1 - p) * k)
    return off


def krawtchouk_sign(n: int, x: int, p: Fraction, N: int) -> int:
    """Exact sign of K_n(x; p, N) from the three-term recurrence in integers.

    With p = P/Q, B_n = P^n N!/(N-n)! K_n is an integer sequence with
    B_{m+1} = (P(N-m) + m(Q-P) - xQ) B_m - m(Q-P) P (N-m+1) B_{m-1}.
    """
    P, Q = p.numerator, p.denominator
    prev, cur = 1, 1
    if n >= 1:
        cur = P * N - x * Q
    for m in range(1, n):
        prev, cur = cur, (P * (N - m) + m * (Q - P) - x * Q) * cur \
            - m * (Q - P) * P * (N - m + 1) * prev
    return (cur > 0) - (cur < 0)


# Row block of the O(j^2) residuals; keeps the checks' temporaries far
# below the request's own peak memory.
_BLOCK = 128


def _eigen_residual(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                    vectors: np.ndarray, spectrum: np.ndarray, conjugate: bool = False) -> float:
    # max |T X - X D| for the tridiagonal T = (lower, diag, upper), over
    # contiguous row blocks; X is conj(vectors) if asked.
    def rows(start: int, stop: int) -> np.ndarray:
        block = vectors[start:stop]
        return block.conj() if conjugate else block

    n = vectors.shape[0]
    worst = 0.0
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        x = rows(start, stop)
        tx = (diag[start:stop, None] - spectrum[None, :]) * x
        high = min(stop, n - 1)
        tx[:high - start] += upper[start:high, None] * rows(start + 1, high + 1)
        low = max(start, 1)
        tx[low - start:] += lower[low - 1:stop - 1, None] * rows(low - 1, stop - 1)
        worst = max(worst, float(np.max(np.abs(tx))))
    return worst


def _column_sign(u: np.ndarray, column: int, j: int, p: Fraction) -> tuple[int, int]:
    # (sign found, sign the closed form prescribes) at the column's largest
    # entry: row 2n holds (-1)^n K~_k(n; p, j), row 2n+1 holds
    # +-(-1)^n K~_{k-1}(n; p, j-1), with k = |column - j|.
    row = int(np.argmax(np.abs(u[:, column])))
    k = abs(column - j)
    n = row // 2
    if row % 2 == 0:
        expected = (-1) ** n * krawtchouk_sign(k, n, p, j)
    else:
        side = 1 if column > j else -1
        expected = side * (-1) ** n * krawtchouk_sign(k - 1, n, p, j - 1) if k else 0
    found = 1 if u[row, column] > 0 else -1
    return found, expected


def check_cold(request, output) -> Checker:
    """Position and momentum eigensystems of one large-j model."""
    u, v, mq, mp = output
    j, p = request.j, request.p
    c = Checker()
    spectrum = grid(j)
    off = position_offdiag(j, float(p))
    c.near("position off-diagonals", np.max(np.abs(mq.offdiag - off)), TOL)
    c.near("position eigen-residual",
           _eigen_residual(off, np.zeros(2 * j + 1), off, u, spectrum), TOL)
    # Conjugated momentum equation M_p conj(V) = conj(V) D, read off the band
    # of M_p: superdiagonal +i t, subdiagonal -i t, zero diagonal.
    sup, diag, sub = np.diagonal(mp, 1), np.diagonal(mp), np.diagonal(mp, -1)
    c.near("momentum band", max(np.max(np.abs(sup - 1j * off)), np.max(np.abs(sub + 1j * off)),
                                np.max(np.abs(diag))), TOL)
    c.near("momentum eigen-residual (conjugated)",
           _eigen_residual(sub, diag, sup, v, spectrum, conjugate=True), TOL)
    cols = list(request.sample)
    outside = 0.0
    for row in cols:
        band = mp[row].copy()
        band[max(row - 1, 0):row + 2] = 0
        outside = max(outside, float(np.max(np.abs(band))))
    c.near("momentum outside band (sampled rows)", outside, 0.0)
    gram = u[:, cols].T @ u
    gram[np.arange(len(cols)), cols] -= 1.0
    c.near("orthogonality (sampled columns)", np.max(np.abs(gram)), TOL)
    for column in cols:
        found, expected = _column_sign(u, column, j, p)
        c.require(f"column {column} sign {found} != closed-form sign {expected}",
                  found == expected)
    return c


def check_exact(request, output, so) -> Checker:
    """Exact routes against the spectral route and the eigenvector rows."""
    fourier, rows, nodes = output
    params = so.ModelParams(request.j, float(request.p))
    c = Checker()
    spectral = so.fourier_spectral(params).data
    c.near("fourier_analytic vs fourier_spectral", np.max(np.abs(fourier.data - spectral)), TOL)
    u = so.analytic_U(params)
    for level, row in zip(request.levels, rows):
        c.near(f"closed row {level} vs analytic_U", np.max(np.abs(row - u[level])), TOL)
    c.require(f"node counts {nodes} != levels {list(request.levels)}",
              list(nodes) == list(request.levels))
    return c


def _check_row(c: Checker, level: int, amplitudes: np.ndarray, name: str) -> None:
    mirrored = amplitudes[::-1] if level % 2 == 0 else -amplitudes[::-1]
    c.near(f"{name} {level} unit norm", abs(np.vdot(amplitudes, amplitudes).real - 1.0), ROW_TOL)
    c.near(f"{name} {level} parity", np.max(np.abs(amplitudes - mirrored)), ROW_TOL)


def check_row(request, output) -> Checker:
    """Unit norm and parity of each returned wave-function row."""
    c = Checker()
    if request.kind == "apply":
        for level, row in zip(request.levels, output):
            _check_row(c, level, row, "transformed row")
        return c
    c.require(f"level {output.n} != {request.levels[0]}", output.n == request.levels[0])
    c.near("grid", np.max(np.abs(output.grid - grid(request.j))), 0.0)
    _check_row(c, request.levels[0], output.amplitudes, f"{request.kind} row")
    return c


_VERIFY_LINE = re.compile(r"^(PASS|FAIL)  (.+): residual=(\S+) tol=(\S+)$")
_VERIFY_OVERALL = re.compile(r"^(PASS|FAIL)  overall: (\d+) checks, (\d+) failed$")


def _flag(argv, name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _check_verify(c: Checker, argv, text: str) -> None:
    if _flag(argv, "--format", "csv") == "json":
        report = json.loads(text)
        checks = report["checks"]
        c.require("verify json: passed is true", report["passed"] is True)
        c.require("verify json: has checks", len(checks) > 0)
        c.require("verify json: every check passed within its tolerance",
                  all(ch["passed"] and ch["residual"] <= ch["tolerance"] for ch in checks))
        return
    lines = text.rstrip("\n").split("\n")
    overall = _VERIFY_OVERALL.match(lines[-1])
    c.require(f"verify csv: overall line {lines[-1]!r}",
              overall is not None and overall.group(1) == "PASS" and overall.group(3) == "0")
    if overall is None:
        return
    c.require("verify csv: check count", int(overall.group(2)) == len(lines) - 1)
    for line in lines[:-1]:
        match = _VERIFY_LINE.match(line)
        c.require(f"verify csv: line {line!r}",
                  match is not None and match.group(1) == "PASS"
                  and float(match.group(3)) <= float(match.group(4)))


def _check_fourier(c: Checker, request, text: str) -> None:
    dim = 2 * request.j + 1
    if _flag(request.argv, "--format", "csv") == "json":
        pairs = np.array(json.loads(text)["matrix"], dtype=float)
    else:
        body = text.rstrip("\n").split("\n")[2:]
        pairs = np.array([line.split(",") for line in body], dtype=float).reshape(len(body), -1, 2)
    c.require(f"fourier: shape {pairs.shape[:2]} != ({dim}, {dim})", pairs.shape[:2] == (dim, dim))
    if pairs.shape[:2] != (dim, dim):
        return
    f = pairs[..., 0] + 1j * pairs[..., 1]
    c.near("fourier: symmetric", np.max(np.abs(f - f.T)), TOL)
    c.near("fourier: unitary", np.max(np.abs(f.conj().T @ f - np.eye(dim))), TOL)
    # F = U^T J U with J^2 = diag(-(-1)^r), and row r of U has parity
    # (-1)^r under the mirror R, so F^2 = -U^T U R = -R: the square is minus
    # the antidiagonal mirror. This rules out the identity and every other
    # symmetric unitary fourth root of I.
    c.near("fourier: square = -mirror", np.max(np.abs(f @ f + np.eye(dim)[::-1])), TOL)
    # The eigenvalues -i i^r, r = 0..2j, sum to -i for even j and to 1 for
    # odd j; this tells F from -F (and from its inverse when j is even).
    trace = -1j if request.j % 2 == 0 else 1.0
    c.near("fourier: trace", abs(np.trace(f) - trace), TOL)


def _wave_tables(argv, text: str):
    # Yields (level, grid, amplitudes) for every block of a wavefunction output.
    if _flag(argv, "--format", "csv") == "json":
        for table in json.loads(text):
            amp = np.array(table["amplitude"], dtype=float)
            if amp.ndim == 2:
                amp = amp[:, 0] + 1j * amp[:, 1]
            yield table["n"], np.array(table["grid"], dtype=float), amp
        return
    for block in text.strip("\n").split("\n\n"):
        lines = block.split("\n")
        level = int(re.search(r" n=(\d+) ", lines[0]).group(1))
        values = np.array([line.split(",") for line in lines[2:]], dtype=float)
        amp = values[:, 1] if values.shape[1] == 2 else values[:, 1] + 1j * values[:, 2]
        yield level, values[:, 0], amp


def _check_wavefunction(c: Checker, request, text: str) -> None:
    tables = list(_wave_tables(request.argv, text))
    c.require("wavefunction: levels", [t[0] for t in tables] == list(request.levels))
    for level, points, amplitudes in tables:
        c.near(f"wavefunction {level}: grid", np.max(np.abs(points - grid(request.j))), 0.0)
        _check_row(c, level, amplitudes, "wavefunction")


def _lpoch(a: float, m: int) -> float:
    # log of the Pochhammer symbol (a)_m for a > 0.
    return math.lgamma(a + m) - math.lgamma(a)


def krawtchouk_normalized(n: int, x: int, p: float, N: int) -> float:
    """sqrt(w(x)/h(n)) K_n(x; p, N) for small n, from the terminating 2F1."""
    poly = sum(math.comb(n, m) * math.comb(x, m) / math.comb(N, m) * (-1.0 / p) ** m
               for m in range(min(n, x) + 1))
    log_w = (math.lgamma(N + 1) - math.lgamma(x + 1) - math.lgamma(N - x + 1)
             + x * math.log(p) + (N - x) * math.log1p(-p))
    log_h = n * math.log((1 - p) / p) - (math.lgamma(N + 1) - math.lgamma(n + 1)
                                         - math.lgamma(N - n + 1))
    return math.exp((log_w - log_h) / 2) * poly


def dual_hahn_normalized(n: int, x: int, gamma: float, delta: float, N: int) -> float:
    """sqrt(w(x)/h(n)) R_n(lambda(x); gamma, delta, N) for small n.

    R_n is the terminating 3F2(-n, -x, x+gamma+delta+1; -N, gamma+1; 1),
    w(x) = (2x+g+d+1) (g+1)_x N!^2 / ((x+g+d+1)_(N+1) (d+1)_x x! (N-x)!)
    and 1/h(n) = C(g+n, n) C(d+N-n, N-n), with g = gamma and d = delta.
    """
    s = x + gamma + delta + 1
    poly, term = 1.0, 1.0
    for m in range(min(n, x)):
        term *= (-n + m) * (-x + m) * (s + m) / ((-N + m) * (gamma + 1 + m) * (m + 1))
        poly += term
    log_w = (math.log(2 * x + gamma + delta + 1) + _lpoch(gamma + 1, x)
             + 2 * math.lgamma(N + 1) - _lpoch(s, N + 1) - _lpoch(delta + 1, x)
             - math.lgamma(x + 1) - math.lgamma(N - x + 1))
    log_inv_h = (_lpoch(gamma + 1, n) - math.lgamma(n + 1)
                 + _lpoch(delta + 1, N - n) - math.lgamma(N - n + 1))
    return math.exp((log_w + log_inv_h) / 2) * poly


def paraboson_even(n: int, c: float, x: float) -> float:
    """(-1)^n sqrt(n!/Gamma(n+c+1)) x^(c+1/2) exp(-x^2/2) L_n^(c)(x^2), x > 0."""
    y = x * x
    laguerre = sum((-y) ** m / math.factorial(m) * math.exp(_lpoch(c + m + 1, n - m)
                                                            - math.lgamma(n - m + 1))
                   for m in range(n + 1))
    log_mag = (0.5 * (math.lgamma(n + 1) - math.lgamma(n + c + 1))
               + (c + 0.5) * math.log(x) - y / 2)
    return (-1) ** n * laguerre * math.exp(log_mag)


def _check_limits(c: Checker, request, text: str) -> None:
    alpha = float(_flag(request.argv, "--alpha"))
    p = float(_flag(request.argv, "--p"))
    n = int(_flag(request.argv, "--n", "0"))
    j = request.j
    rows = np.array([line.split(",") for line in text.rstrip("\n").split("\n")[2:]], dtype=float)
    count = min(15, j)
    c.require(f"limits: {len(rows)} rows != {count}", rows.shape == (count, 4))
    if rows.shape != (count, 4):
        return
    k = range(1, count + 1)
    x = np.sqrt([kk * (kk + 2.0 * alpha + 1.0) / j for kk in k])
    gamma, delta = 2.0 * p * alpha, 2.0 * (1.0 - p) * alpha
    dual = np.array([dual_hahn_normalized(n, kk, gamma, delta, j) for kk in k])
    kraw = np.array([krawtchouk_normalized(n, kk, p, j) for kk in k])
    cont = np.array([paraboson_even(n, gamma, xk) for xk in x])
    c.near("limits: lattice points", np.max(np.abs(rows[:, 0] - x) / x), ROW_TOL)
    # Absolute residuals: the normalized functions are entries of orthogonal
    # tables and the paraboson function is normalized, so all are at most 1
    # in size, and the eigen-solver gives their small entries (down to 1e-19
    # at alpha = 1000) only to an absolute accuracy.
    scaled = rows[:, 1] * (-1) ** n * math.sqrt(2.0) / j ** 0.25
    c.near("limits: discrete = (-1)^n j^(1/4) R~_n / sqrt(2)", np.max(np.abs(scaled - dual)), TOL)
    c.near("limits: continuum = even paraboson", np.max(np.abs(rows[:, 2] - cont)), TOL)
    c.near("limits: gap = |R~_n - K~_n|", np.max(np.abs(rows[:, 3] - np.abs(dual - kraw))), TOL)


def _check_spectrum(c: Checker, request, text: str) -> None:
    values = np.array(text.rstrip("\n").split("\n")[2:], dtype=float)
    if _flag(request.argv, "--observable") == "H":
        expected = np.arange(2 * request.j + 1) + 0.5
    else:
        expected = grid(request.j)
    c.require("spectrum: length", values.shape == expected.shape)
    if values.shape == expected.shape:
        c.near("spectrum: values", np.max(np.abs(values - expected)), 0.0)


_CLI_CHECKS = {
    "fourier": _check_fourier,
    "wavefunction": _check_wavefunction,
    "limits": _check_limits,
    "spectrum": _check_spectrum,
}


def check_cli(request, output) -> Checker:
    """Exit code, verdict line and parsed numbers of one CLI call."""
    code, out, err = output
    c = Checker()
    c.require(f"exit code {code} != {request.expect_exit}", code == request.expect_exit)
    if request.expect_exit == 3:
        c.require("domain error: no output and an error message",
                  out == "" and err.startswith("error: "))
        return c
    if code != request.expect_exit:
        return c
    command = request.argv[0]
    if command == "verify":
        _check_verify(c, request.argv, out)
    else:
        _CLI_CHECKS[command](c, request, out)
    return c
