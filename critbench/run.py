#!/usr/bin/env python3
"""Build and run the benchmark of record.

Run from the root of a checkout:

    python3 critbench/run.py --threads 1 --workers 1 --workload sweep_cold \\
        --seed 1 --seconds 40 --trace 0

The first run configures and builds critbench and critics_cli from the
checkout's sources into $CARGO_TARGET_DIR (default .bench_build); later
runs only rebuild what changed.  Build output goes to stderr, so the
last line of stdout is the benchmark's result JSON.  Exits non-zero,
printing no result, when the sources are missing or do not build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "critbench", "critics_cli"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        print("critbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "critbench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
