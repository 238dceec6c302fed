#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json in the reduced-size smoke mode, with
and without tracing, on a seed kept out of tuning, and asserts that each run
exits 0, reports every metric with its declared name and unit, and prints
every correctness check of its workload with no failure. It also runs the
benchmark in a directory holding only BENCHMARK.json and perfbench/, where it
must fail without printing a result. Run from the repository root; it writes
only under .bench_build/.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

SMOKE_SEED = 90210
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKS = {
    "optjs_cold": ["http_status", "report_binds", "replay_identical"],
    "search_cold": ["http_status", "report_binds", "replay_identical"],
    "cache_hot": ["http_status", "report_binds", "hot_equals_warmup"],
    "pool_churn": ["http_status", "report_binds", "replay_identical",
                   "pool_delta"],
}


def run(cwd, workload, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SMOKE_SEED), "--seconds", "1", "--trace",
               str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


def check_run(spec, workload, trace):
    done = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    assert done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stderr}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], label
    assert result["correct"] is True and result["failed"] == 0, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{label}: metrics {got} != declared {want}"
    for name, metric in result["metrics"].items():
        assert sorted(metric) == ["unit", "value"], f"{label}: {name}"
        assert math.isfinite(metric["value"]), f"{label}: {name}"
        assert re.search(rf"^metric {re.escape(name)} = \S+ "
                         rf"{re.escape(metric['unit'])}", done.stdout,
                         re.M), f"{label}: no printed line for {name}"
    for check in CHECKS[workload]:
        match = re.search(rf"^check {check}: (\d+) passed, (\d+) failed$",
                          done.stdout, re.M)
        assert match, f"{label}: check {check} not reported"
        assert int(match.group(1)) > 0 and match.group(2) == "0", \
            f"{label}: {match.group(0)}"
    host = json.loads(lines[0])["host"]
    for key in ("nproc", "simd", "JURYOPT_THREADS", "compiler", "ndebug",
                "fault_injection", "seed"):
        assert key in host, f"{label}: host line lacks {key}"
    print(f"ok  {label}: {result['attempted']} requests")


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "optjs_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, "bare directory run succeeded"
    assert '"metrics"' not in done.stdout, "bare directory run printed a result"
    print("ok  bare directory fails without a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
