"""Steadiness of the end-to-end metrics over seeds.

    python3 bench/steadiness.py --runs 10 [--workloads cold_large_j,warm_rows]

Runs bench/run.py once per seed (1..runs) for each workload, one after the
other, for the run length in BENCHMARK.json, and prints for every end-to-end
metric its median and the distance between its first and third quartiles as
a share of the median, next to the metric's bound in BENCHMARK.json. A
spread below a third of the bound is steady. setup_s is printed but does not
decide the exit code: only its median, not its spread, is held to its bound.
The per-run result lines are appended to bench/results/steadiness.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    (BENCH / "results").mkdir(exist_ok=True)
    log = BENCH / "results" / "steadiness.jsonl"
    unsteady = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, args.runs + 1):
            proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            with log.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": workload, "seed": seed, **line}) + "\n")
            if not line["correct"]:
                print(f"{workload} seed {seed}: incorrect output\n{proc.stderr}", file=sys.stderr)
                return 1
            for name, metric in line["metrics"].items():
                values[name].append(metric["value"])
        print(f"{workload} ({args.runs} seeds, {spec['run_seconds']} s)")
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            steady = spread < metric["bound"] / 3
            gated = metric["name"] != "setup_s"
            unsteady += gated and not steady
            verdict = "steady" if steady else "NOT STEADY"
            print(f"  {metric['name']:16s} median {median:12.6g} {metric['unit']:7s} "
                  f"spread {spread:7.2%}  bound {metric['bound']:.0%}  "
                  f"{verdict}{'' if gated else ' (not gated)'}")
    return 1 if unsteady else 0


if __name__ == "__main__":
    raise SystemExit(main())
