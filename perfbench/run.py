#!/usr/bin/env python3
"""Build the SSS benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ro-heavy --seed 1 --seconds 35 --trace 0

The benchmark is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`). Every argument is passed on to the benchmark binary, whose
last line of standard output is the JSON result. Span files of traced runs
go to `<target dir>/perfbench-spans`. The exit code is the benchmark's, or
non-zero when the build fails or the run overruns its time limit.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run takes under a minute; a hung one is stopped well inside 180 s.
RUN_TIMEOUT_S = 170
# The first run in a fresh checkout compiles every crate.
BUILD_TIMEOUT_S = 840


def cargo():
    found = shutil.which("cargo")
    if found:
        return found
    fallback = os.path.expanduser("~/.cargo/bin/cargo")
    return fallback if os.path.exists(fallback) else "cargo"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        cargo(), "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        sys.exit(f"perfbench: build failed: {error}")
    if built.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {built.returncode}")

    binary = os.path.join(target, "release", "sss-perfbench")
    spans = os.path.join(target, "perfbench-spans")
    try:
        ran = subprocess.run([binary, *sys.argv[1:], "--out-dir", spans], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped")
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
