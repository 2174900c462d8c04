"""Seeded request lists of the benchmark workloads.

Each workload is a fixed list of requests that one closed-loop client
replays pass after pass. The list is drawn from ``--seed``: the same seed
gives the same list, another seed another list of the same make-up.
Sizes are stratified: the large requests have a fixed grid of j, the same
for every seed, and the seed draws p or its mirror 1 - p (they cost the
same), levels, columns, the order and the small requests. So every seed
loads the same layers equally and a run's totals do not hinge on a lucky
draw.

This module imports nothing from the package: the package only ever sees
the generated (j, p, n, argv) inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("cold_large_j", "exact_routes", "cli_verify", "warm_rows")


@dataclass(frozen=True)
class Request:
    """One request of the closed loop.

    ``kind`` selects what the client calls: "cold" (the four model
    matrices), "exact" (the exact-arithmetic routes), "cli" (one
    ``superosc.cli.main(argv)`` call), "position" or "momentum" (one
    wave-function row) and "apply" (``apply_fourier`` on a stack of rows).
    ``p`` is exact; the package receives ``float(p)``. ``sample`` holds
    seeded columns or rows for the checks, never for the timed call.
    """

    kind: str
    j: int = 0
    p: Fraction = Fraction(1, 2)
    levels: tuple[int, ...] = ()
    argv: tuple[str, ...] = ()
    expect_exit: int = 0
    sample: tuple[int, ...] = ()


@dataclass(frozen=True)
class Workload:
    """A seeded request list and how the client treats it.

    ``cold``: clear every package cache before each request.
    ``warm``: (j, p) models whose caches the set-up fills.
    ``tail_percentile``: the latency percentile reported as
    ``latency_tail_s``. It sets how many of each request's fastest passes
    the latency percentiles read: as few as leave ten samples beyond it. It
    is chosen to sit inside one request class, so that it reads the same
    kind of request whatever the seed.
    """

    name: str
    requests: tuple[Request, ...]
    cold: bool
    tail_percentile: float
    warm: tuple[tuple[int, Fraction], ...] = ()


def _mirror(rng: random.Random, p: Fraction) -> Fraction:
    # p and 1 - p cost the same (equal sign-fallback counts, the same
    # 4p(1-p) in the closed forms), so the mirror varies the input freely.
    return 1 - p if rng.random() < 0.5 else p


def _jitter(rng: random.Random, base: int, width: int) -> int:
    return base + rng.randint(-width, width)


def _sizes(base: int, width: int, count: int) -> list[int]:
    # count sizes from base - width to base + width, evenly spaced. They are
    # the same for every seed, so a size class costs the same whatever the
    # seed and its median request is always the same kind of request.
    return [base - width + 2 * width * i // (count - 1) for i in range(count)]


# One p of each cost: 1/10 and 3/10 (or their mirrors) and 1/2, whose
# closed forms hit the removable singularity. Requests come in size classes
# of these, so the median and the tail each fall inside a class of fixed
# make-up whatever the seed.
_P_CLASS = (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2))


# Why: the ROADMAP's "large j" use. Time goes to the table builder's
# eigh_tridiagonal and its exact Fraction sign fallbacks (specfun about
# 45%, oscillator about 20%); the dense momentum generators set peak RSS.
# Every cache is cleared before each request; the exact 2F1 routes and the
# oracle stay idle.
def cold_large_j(rng: random.Random) -> Workload:
    requests = []
    for base in (250, 450, 700):
        for p, j in zip(_P_CLASS, _sizes(base, 10, len(_P_CLASS))):
            columns = tuple(sorted(rng.sample(range(2 * j + 1), 6)))
            requests.append(Request("cold", j, _mirror(rng, p), sample=columns))
    rng.shuffle(requests)
    return Workload("cold_large_j", tuple(requests), cold=True, tail_percentile=70.0)


# Why: Fraction arithmetic in _hyp2f1_rational, _S_table and _closed_row
# dominates (about 57% of the time in `fractions`) while eigen tables at
# N <= 40 take microseconds; p = 1/2 exercises the removable-singularity
# path. The workload that exact-integer closed routes should move and a
# faster table builder should not.
def exact_routes(rng: random.Random) -> Workload:
    classes = ((18, _P_CLASS),
               (28, _P_CLASS + (Fraction(1, 5), Fraction(1, 4))),
               (38, _P_CLASS))
    requests = []
    for base, p_values in classes:
        for p, j in zip(p_values, _sizes(base, 1, len(p_values))):
            levels = tuple(sorted(rng.sample(range(2 * j + 1), 3)))
            requests.append(Request("exact", j, _mirror(rng, p), levels=levels))
    rng.shuffle(requests)
    return Workload("exact_routes", tuple(requests), cold=True, tail_percentile=77.0)


_CLI_P = ("0.1", "0.2", "0.25", "0.3", "0.4", "0.6", "0.7", "0.75", "0.8", "0.9")


def _decimal(p: Fraction) -> str:
    return str(float(p))


def _cli(argv: list[str], expect_exit: int = 0, j: int = 0, levels=()) -> Request:
    return Request("cli", j, argv=tuple(argv), expect_exit=expect_exit, levels=tuple(levels))


# Why: the user's entry point and the only workload that runs `suite`, the
# oracle, representation.verify_* and the cli formatter. Caches are cleared
# before each call, as in a fresh `superosc` process. A cold verify spends
# most of its time in paraboson_limit_table (dual Hahn tables at j = 200,
# 400) and the pure-Python oracle, about 3 s whatever --j-max is; one verify
# per pass, in CSV or JSON by seed, keeps a pass short enough for a median
# over several passes.
def cli_verify(rng: random.Random) -> Workload:
    p_list = [_mirror(rng, Fraction(1, 10)), _mirror(rng, Fraction(3, 10)), Fraction(1, 2)]
    requests = [_cli(["verify", "--j-max", "10", "--p-list", ",".join(map(_decimal, p_list)),
                      "--format", rng.choice(("csv", "json"))])]
    # The tail class: four spectral transforms of one size, so that the
    # tail percentile reads a class of 4 x passes samples.
    for fmt, j in zip(("csv", "json", "csv", "json"), _sizes(72, 1, 4)):
        requests.append(_cli(["fourier", "--j", str(j), "--p", rng.choice(_CLI_P),
                              "--method", "spectral", "--format", fmt], j=j))
    j = _jitter(rng, 12, 1)
    requests.append(_cli(["fourier", "--j", str(j), "--p", _decimal(_mirror(rng, Fraction(3, 10))),
                          "--method", "analytic"], j=j))
    for index, base in enumerate((20, 30, 40, 50, 60) * 2):
        j = _jitter(rng, base, 1)
        levels = sorted(rng.sample(range(2 * j + 1), 2))
        requests.append(_cli(["wavefunction", "--j", str(j), "--p", rng.choice(_CLI_P),
                              "--n", ",".join(map(str, levels)),
                              "--kind", "momentum" if index % 2 else "position",
                              "--format", "json" if index % 3 == 1 else "csv"],
                             j=j, levels=levels))
    for base, alpha, p in ((60, "10", Fraction(1, 2)), (100, "1000", Fraction(3, 10))):
        j = _jitter(rng, base, 1)
        requests.append(_cli(["limits", "--j", str(j), "--p", _decimal(_mirror(rng, p)),
                              "--alpha", alpha, "--n", str(rng.randint(0, 2))], j=j))
    j = rng.randint(30, 80)
    requests.append(_cli(["spectrum", "--j", str(j),
                          "--observable", rng.choice(("q", "p", "H"))], j=j))
    # Domain errors: each must exit 3 with a message and no output.
    j = rng.randint(3, 20)
    requests.append(_cli(["fourier", "--j", str(j), "--p", rng.choice(("1.5", "0", "-0.2"))],
                         expect_exit=3))
    requests.append(_cli(["wavefunction", "--j", str(j), "--p", "0.5",
                          "--n", str(2 * j + rng.randint(1, 5))], expect_exit=3))
    requests.append(_cli(["limits", "--j", str(j), "--p", "0.5",
                          "--alpha", rng.choice(("0", "-1"))], expect_exit=3))
    rng.shuffle(requests)
    return Workload("cli_verify", tuple(requests), cold=True, tail_percentile=84.0)


# Why: the only workload where the caches hit. Set-up fills them for three
# models; then many single-row reads use the same specfun and oscillator
# layers as cold_large_j, but repeatedly. Each row today rebuilds the full
# analytic_U, so a change that gives up reuse, bounds the caches badly or
# trades memory for speed shows here.
def warm_rows(rng: random.Random) -> Workload:
    strata = ((100, Fraction(1, 2)), (200, Fraction(3, 10)), (300, Fraction(1, 10)))
    warm = tuple((_jitter(rng, base, 2), _mirror(rng, p)) for base, p in strata)
    requests = []
    for j, p in warm:
        dim = 2 * j + 1
        requests += [Request("position", j, p, levels=(rng.randrange(dim),)) for _ in range(30)]
        requests += [Request("momentum", j, p, levels=(rng.randrange(dim),)) for _ in range(25)]
        requests += [Request("apply", j, p, levels=tuple(rng.sample(range(dim), rng.randint(2, 4))))
                     for _ in range(8)]
    rng.shuffle(requests)
    return Workload("warm_rows", tuple(requests), cold=False, tail_percentile=94.0, warm=warm)


_BUILDERS = {
    "cold_large_j": cold_large_j,
    "exact_routes": exact_routes,
    "cli_verify": cli_verify,
    "warm_rows": warm_rows,
}


def build(name: str, seed: int) -> Workload:
    """The request list of workload ``name`` for ``seed``."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[name](random.Random(f"{name}:{seed}"))
