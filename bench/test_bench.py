"""Tests of the benchmark's own parts: seeded inputs, metric names, error accounting.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import numpy as np  # noqa: E402
import superosc as so  # noqa: E402
import superosc.cli  # noqa: E402,F401
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import (Client, Tally, find_caches, layer_summary, package_modules,  # noqa: E402
                    summarize, tail)


def _client(*requests) -> Client:
    return Client(so, workloads.Workload("test", requests, cold=True, tail_percentile=50.0))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_requests(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_changes_requests(name):
    assert workloads.build(name, 7).requests != workloads.build(name, 8).requests


def test_benchmark_json_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_sign_flipped_column_counts_as_failure():
    request = workloads.Request("cold", 30, Fraction(3, 10), sample=(2, 17, 30, 44))
    output = _client(request).call(request)
    good = Tally()
    good.record(request, output, None, so)
    assert good.failed == 0 and good.accuracy_digits > 12
    flipped = output[0].copy()
    flipped[:, 17] *= -1.0
    bad = Tally()
    bad.record(request, (flipped,) + output[1:], None, so)
    assert (bad.attempted, bad.failed, bad.error_rate) == (1, 1, 1.0)


def test_exit_codes_decide_cli_failures():
    domain = workloads.Request("cli", argv=("fourier", "--j", "3", "--p", "1.5"), expect_exit=3)
    tally = Tally()
    tally.record(domain, _client(domain).call(domain), None, so)
    assert tally.failed == 0
    wrong = workloads.Request("cli", argv=("spectrum", "--j", "3"), j=3, expect_exit=3)
    tally.record(wrong, _client(wrong).call(wrong), None, so)
    tally.record(wrong, None, "ValueError: raised", so)
    assert (tally.attempted, tally.failed) == (3, 2)


def _fourier_csv(matrix) -> str:
    rows = [",".join(f"{z.real:.17g},{z.imag:.17g}" for z in row) for row in matrix]
    return "# fourier\nre,im\n" + "\n".join(rows) + "\n"


def test_fourier_check_rejects_other_fourth_roots():
    params = so.ModelParams(10, 0.3)
    request = workloads.Request("cli", 10, argv=("fourier", "--j", "10", "--p", "0.3"))
    good = checks.Checker()
    checks._check_fourier(good, request, _fourier_csv(so.fourier_spectral(params).data))
    assert good.failures == []
    spectral = so.fourier_spectral(params).data
    for wrong in (np.eye(21), -spectral, spectral.conj()):
        bad = checks.Checker()
        checks._check_fourier(bad, request, _fourier_csv(wrong))
        assert bad.failures


def test_limits_check_reads_every_column():
    argv = ("limits", "--j", "60", "--p", "0.5", "--alpha", "10", "--n", "1")
    request = workloads.Request("cli", 60, argv=argv)
    code, out, _ = _client(request).call(request)
    assert code == 0 and checks.check_cli(request, (code, out, "")).failures == []
    lines = out.split("\n")
    for column in (1, 2, 3):
        cells = lines[5].split(",")
        cells[column] = repr(float(cells[column]) * 1.001 + 1e-6)
        c = checks.Checker()
        checks._check_limits(c, request, "\n".join(lines[:5] + [",".join(cells)] + lines[6:]))
        assert len(c.failures) == 1


def test_layer_summary_zero_fills_only_layers_of_this_build():
    tracer = Tracer()
    modules = package_modules(so)
    tracer.install(modules)
    tracer.remove()
    layers = layer_summary(tracer, find_caches(modules), {}, passes=1)
    assert layers["oracle.tridiag_eigen.calls"] == 0
    assert layers["oracle.tridiag_eigen.iterations"] == 0
    assert layers["specfun.sign_fallbacks"] == 0
    assert "specfun.no_such_layer.calls" not in layers


def test_summarize_reads_each_request_at_its_fastest():
    passes = [[1.0, 5.0], [3.0, 4.0], [2.0, 9.0], [4.0, 6.0], [9.0, 9.0], [7.0, 8.0]]
    summary = summarize(passes, 0.0)
    assert summary["wall_s"] == 1.0 + 4.0
    # Ten samples beyond the 0th percentile: the five fastest passes of each request.
    assert summary["samples"] == 10 and summary["latency_p50_s"] == 4.5


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(40)]
    assert tail(samples, 75.0) == (29.0, 75.0)
    value, used = tail(samples, 90.0)
    assert sum(s > value for s in samples) == 10 and used == 75.0


def test_tracer_patches_every_binding_and_restores():
    original = so.specfun.krawtchouk_table
    tracer = Tracer()
    tracer.install(package_modules(so))
    try:
        for module in (so.specfun, so.oscillator, so.fourier, so.suite, so):
            assert module.krawtchouk_table is not original
        assert so.cli._COMMANDS["verify"] is so.cli.cmd_verify
        tracer.request(0, so.analytic_U, so.ModelParams(12, 0.25))
    finally:
        tracer.remove()
    assert so.oscillator.krawtchouk_table is original
    assert tracer.stats["oscillator.analytic_U"][0] == 1
    assert tracer.stats["specfun.krawtchouk_table"][0] == 2
    assert tracer.spans[-1][3] == "request"


def test_run_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "warm_rows", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
