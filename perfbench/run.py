#!/usr/bin/env python3
"""Builds and runs the jury-selection benchmark (jury_perfbench).

    python3 perfbench/run.py --workload optjs_cold --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark binary (Release) under .bench_build/ (or
$CARGO_TARGET_DIR); later runs only re-check the build. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result. Without
the repository's sources next to perfbench/ the build fails and the script
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "api", "solve.h")):
        fail(f"no library sources under {root}/src; cannot build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "jury_perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "jury_perfbench")


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.path.join(root,
                              os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, os.path.join(build_root, "perfbench"))
    command = [binary, *argv, "--out-dir", os.path.join(build_root, "out")]
    process = subprocess.Popen(command, cwd=root)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
