"""Benchmark of the superosc package: one workload per fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is imported from the
checkout's ``src``; nothing is installed. With ``--trace 0`` the last line
of standard output is one JSON object holding every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it holds every per-layer metric.
The full report (environment, request counts, percentiles, cache counts,
failures) goes to ``bench/results/``; a traced run also writes its spans
there. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

# Fresh starts besides the measuring process itself; setup_s is the median.
SETUP_PROBES = 4
# Every child must be done by then: a run ends within 180 s.
DEADLINE_S = 170.0


def child_env() -> dict[str, str]:
    """This process's environment with ``src`` first on the path and BLAS threads capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        env[var] = str(min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc)
    return env


def run_child(command: list[str], env, deadline: float) -> subprocess.CompletedProcess:
    # subprocess.run kills and reaps the child if it overruns the deadline.
    return subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))


def worker(args, env, deadline: float, extra: list[str]) -> dict:
    spawned = time.perf_counter()
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--spawned", repr(spawned), *extra]
    proc = run_child(command, env, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times(env, deadline: float) -> dict[str, float]:
    """Import time of the package from ``-X importtime``, split by module.

    Self time of every module imported by ``import superosc, superosc.cli``,
    summed per top-level package (``import.numpy_s``, ``import.scipy_s``, ...)
    and given per package module (``import.superosc.specfun_s``, ...).
    """
    proc = run_child([sys.executable, "-X", "importtime", "-c", "import superosc, superosc.cli"],
                     env, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"import failed:\n{proc.stderr[-4000:]}")
    times: dict[str, float] = {}
    total = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, module = (part.strip() for part in line[len("import time:"):].split("|"))
        seconds = int(self_us) / 1e6
        total += seconds
        top = module.split(".")[0]
        key = f"import.{module}_s" if top == "superosc" else f"import.{top}_s"
        times[key] = times.get(key, 0.0) + seconds
        if top == "superosc" and module != "superosc":
            times["import.superosc_s"] = times.get("import.superosc_s", 0.0) + seconds
    times["import.total_s"] = total
    return times


def git_commit() -> str:
    # The benchmark may run in a checkout that is not a git repository.
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="superosc benchmark: one workload, one result line")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    deadline = start + DEADLINE_S

    if not (ROOT / "src" / "superosc" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'superosc'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = child_env()
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup_samples.append(worker(args, env, deadline, ["--probe"])["setup_s"])
        extra = ["--spans", str(stem) + ".spans.jsonl.gz"] if args.trace else []
        result = worker(args, env, deadline, extra)
        imports = import_times(env, deadline) if args.trace else {}
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(result["setup_s"])

    untraced = result["untraced"]
    measured = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": untraced["wall_s"],
        "latency_p50_s": untraced["latency_p50_s"],
        "latency_tail_s": untraced["latency_tail_s"],
        "error_rate": result["error_rate"],
        "accuracy_digits": result["accuracy_digits"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if args.trace:
        measured = {**result["layers"], **imports}
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        # A layer renamed or removed must not read as a metric that fell to 0.
        print(f"error: this build has no layer for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "environment": result["environment"],
        "blas_threads_cap": env["OPENBLAS_NUM_THREADS"],
        "requests_per_pass": result["requests_per_pass"],
        "setup_samples_s": setup_samples,
        "untraced": untraced,
        "traced": result.get("traced"),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "error_rate": result["error_rate"],
        "worst_residual": result["worst_residual"],
        "failures": result["failures"],
        "cache_counts": result["cache_counts"],
        "metrics": measured,
        "run_s": time.perf_counter() - start,
    }
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"{args.workload} seed={args.seed}: {untraced['passes']} passes x "
          f"{result['requests_per_pass']} requests, latency_tail_s at "
          f"p{untraced['latency_tail_percentile']:.1f} of {untraced['samples']} samples, "
          f"{result['failed']}/{result['attempted']} failed; report {stem}.json",
          file=sys.stderr)
    for message in result["failures"]:
        print(f"  failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
