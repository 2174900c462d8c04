"""One fresh workload process: set up, run the closed loop, check every output.

Started by run.py with the checkout's ``src`` on PYTHONPATH and BLAS threads
capped; not meant to be run by hand. One client issues each request only
after the previous one has returned, replaying the workload's request list
pass after pass until the time budget is spent (the pass in progress is
finished). Checks run between requests, outside the timed region.

``--probe`` stops at the first timed request and reports only the set-up
time. Otherwise the process prints one JSON object with the untraced
metrics, and with ``--trace 1`` also the traced per-layer summary.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import math
import os
import pkgutil
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import workloads
from tracer import COUNTERS, Tracer, layer_name

ROOT = Path(__file__).resolve().parent.parent
# Keeps a run inside the 180 s a benchmark run may take, whatever --seconds says.
HARD_CAP_S = 120.0


def package_modules(so) -> list:
    return [so] + [m for name, m in sorted(sys.modules.items())
                   if name.startswith("superosc.") and m is not None]


def find_caches(modules) -> dict[str, object]:
    """Every functools cache on the package modules: any attribute with cache_clear."""
    caches = {}
    for module in modules:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                caches[layer_name(value)] = value
    return caches


class Client:
    """The closed-loop client: one call per request, inputs built by the workload."""

    def __init__(self, so, workload: workloads.Workload) -> None:
        self.so = so
        self.cache_counts: dict[str, list[int]] = {}   # cache -> [hits, misses]
        self.stacks = {}
        self.transforms = {}
        for j, p in workload.warm:
            params = so.ModelParams(j, float(p))
            self.stacks[j, p] = so.analytic_U(params)
            self.transforms[j, p] = so.fourier_spectral(params)

    def call(self, r: workloads.Request):
        so = self.so
        if r.kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = so.cli.main(list(r.argv))
            return code, out.getvalue(), err.getvalue()
        params = so.ModelParams(r.j, float(r.p))
        if r.kind == "cold":
            return (so.analytic_U(params), so.analytic_V(params),
                    so.position_matrix(params), so.momentum_matrix(params))
        if r.kind == "exact":
            return (so.fourier_analytic(params),
                    [so.position_wavefunction_closed(params, n) for n in r.levels],
                    [so.node_count(params, n) for n in r.levels])
        if r.kind == "position":
            return so.position_wavefunction(params, r.levels[0])
        if r.kind == "momentum":
            return so.momentum_wavefunction(params, r.levels[0])
        if r.kind == "apply":
            stack = self.stacks[r.j, r.p][list(r.levels)]
            return so.apply_fourier(stack, self.transforms[r.j, r.p])
        raise ValueError(f"unknown request kind {r.kind!r}")


def check(request, output, so):
    if request.kind == "cold":
        return checks.check_cold(request, output)
    if request.kind == "exact":
        return checks.check_exact(request, output, so)
    if request.kind == "cli":
        return checks.check_cli(request, output)
    return checks.check_row(request, output)


class Tally:
    """Attempted and failed requests and the worst check residual of a run.

    A request fails if it raises, if its exit code differs from the expected
    one, or if a check residual exceeds the check's tolerance.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.messages: list[str] = []

    def record(self, request, output, error: str | None, so) -> None:
        self.attempted += 1
        if error is not None:
            problems = [error]
        else:
            try:
                checker = check(request, output, so)
            except Exception as exc:  # output the checks cannot even read
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            else:
                self.worst = max(self.worst, checker.worst)
                problems = checker.failures
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{request.kind} j={request.j} {' '.join(request.argv)}: "
                                     + "; ".join(problems[:3]))

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted

    @property
    def accuracy_digits(self) -> float:
        return -math.log10(max(self.worst, 1e-16))


def run_passes(client, workload, budget_s, tally, caches, tracer=None) -> list[list[float]]:
    """Replay the request list while another pass fits in ``budget_s``; latencies per pass.

    The first pass always runs; a further pass starts only if the mean pass
    so far (checks included) still fits. Cache hits and misses of each
    request (cache_info() after minus before) are added to
    ``client.cache_counts``; cold workloads clear every cache first.
    """
    start = time.perf_counter()
    passes = []
    request_id = 0
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= budget_s:
        latencies = []
        for request in workload.requests:
            if workload.cold:
                for cache in caches.values():
                    cache.cache_clear()
            before = {name: cache.cache_info() for name, cache in caches.items()}
            error = output = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    output = client.call(request)
                else:
                    output = tracer.request(request_id, client.call, request)
            except Exception as exc:  # a failed request is counted, the loop goes on
                error = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            for name, cache in caches.items():
                info = cache.cache_info()
                counts = client.cache_counts.setdefault(name, [0, 0])
                counts[0] += info.hits - before[name].hits
                counts[1] += info.misses - before[name].misses
            if tracer is not None and request.kind == "cli" and error is None:
                tracer.count("cli.output_bytes", len(output[1].encode()))
            tally.record(request, output, error, client.so)
            request_id += 1
        passes.append(latencies)
        if time.perf_counter() - start > HARD_CAP_S:
            break
    return passes


def tail(latencies: list[float], percentile: float) -> tuple[float, float]:
    """Nearest-rank latency at ``percentile``, lowered if needed to keep ten samples beyond it.

    Returns (latency, percentile used); with ten samples or fewer, the maximum.
    """
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= 10:
        return ordered[-1], 100.0
    used = min(percentile, 100.0 * (n - 10) / n)
    index = min(math.ceil(used / 100.0 * n - 1e-9) - 1, n - 11)
    return ordered[index], used


def summarize(passes: list[list[float]], percentile: float) -> dict:
    """Time metrics of a run from the latencies of every pass.

    Every pass repeats the same work (cold workloads clear every cache
    before each request, warm ones hit on every pass), so the passes of one
    request differ only by the host's speed, which on a shared machine
    drops by up to 2x for seconds to minutes at a time and only ever adds
    time. Each request is therefore read at its fastest: ``wall_s`` sums
    the best latency of every request position, and the latency percentiles
    pool the fastest passes of every position, as few per position as leave
    ten samples beyond ``percentile``.
    """
    by_request = [sorted(column) for column in zip(*passes)]
    per_request = math.ceil(10 / (len(by_request) * (1 - percentile / 100)))
    kept = [x for column in by_request for x in column[:per_request]]
    tail_s, tail_pct = tail(kept, percentile)
    return {
        "passes": len(passes),
        "samples": len(kept),
        "wall_s": sum(column[0] for column in by_request),
        "pass_walls_s": [sum(p) for p in passes],
        "latencies_s": passes,
        "latency_p50_s": statistics.median(kept),
        "latency_tail_s": tail_s,
        "latency_tail_percentile": tail_pct,
    }


def blas_info() -> dict:
    """BLAS library and thread count, read from this process."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def environment(so) -> dict:
    import numpy
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "superosc": so.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
    }


def layer_summary(tracer, caches, cache_counts, passes: int) -> dict:
    """Per-layer metrics of the traced passes, per pass of the request list.

    Every wrapped layer and every cache gets its metrics, 0 if the workload
    never reached it. A metric of a layer this build does not have is absent.
    """
    layers = {}
    for name in tracer.layers:
        calls, busy, self_time = tracer.stats.get(name, (0, 0.0, 0.0))
        layers[f"{name}.calls"] = calls / passes
        layers[f"{name}.busy_s"] = busy / passes
        layers[f"{name}.self_s"] = self_time / passes
        for counter in COUNTERS.get(name, ()):
            layers[counter] = tracer.counters.get(counter, 0) / passes
    signs = [f"specfun.{name}.calls" for name in ("krawtchouk_sign", "dual_hahn_sign")]
    if any(name in layers for name in signs):
        layers["specfun.sign_fallbacks"] = sum(layers.get(name, 0) for name in signs)
    for name in caches:
        hits, misses = cache_counts.get(name, (0, 0))
        layers[f"{name}.cache_hits"] = hits / passes
        layers[f"{name}.cache_misses"] = misses / passes
        layers[f"{name}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="perf_counter() of the parent just before it started this process")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    import superosc as so
    if args.workload == "cli_verify":
        import superosc.cli  # noqa: F401  (the CLI is part of this workload's start-up)
    source = Path(so.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: superosc imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed)
    client = Client(so, workload)
    setup_s = time.perf_counter() - args.spawned
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        # Every layer of the package exists in a traced run, reached or not.
        for info in pkgutil.iter_modules(so.__path__):
            if info.name != "__main__":
                importlib.import_module(f"{so.__name__}.{info.name}")
    modules = package_modules(so)
    caches = find_caches(modules)
    tally = Tally()
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_passes(client, workload, budget, tally, caches)
    result = {
        "setup_s": setup_s,
        "untraced": summarize(untraced, workload.tail_percentile),
        "requests_per_pass": len(workload.requests),
        "cache_counts": client.cache_counts,
        "environment": environment(so),
    }
    if args.trace:
        tracer = Tracer()
        tracer.install(modules)
        client.cache_counts = {}
        try:
            traced = run_passes(client, workload, budget, tally, caches, tracer)
        finally:
            tracer.remove()
        traced_summary = summarize(traced, workload.tail_percentile)
        layers = layer_summary(tracer, caches, client.cache_counts, len(traced))
        _, request_s, uncovered_s = tracer.stats["request"]
        layers.update({
            "trace.wall_s": traced_summary["wall_s"],
            "trace.untraced_wall_s": result["untraced"]["wall_s"],
            "trace.overhead_s": traced_summary["wall_s"] - result["untraced"]["wall_s"],
            "trace.uncovered_s": uncovered_s / len(traced),
            "trace.coverage": 1.0 - uncovered_s / request_s,
            "trace.spans_dropped": tracer.dropped,
        })
        result["traced"] = traced_summary
        result["layers"] = layers
        if args.spans:
            tracer.write(args.spans, layers)
    result.update({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.error_rate,
        "accuracy_digits": tally.accuracy_digits,
        "worst_residual": tally.worst,
        "failures": tally.messages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
