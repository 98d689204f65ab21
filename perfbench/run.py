#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload stream_dyn|random_big|periodic_grid \
        [--seed N] [--seconds S] [--trace 0|1]

The first run configures and builds into .bench_build/ (a Release build
of the simulator library plus the benchmark binary); later runs only
check that the build is current. The benchmark binary then replaces
this process, so its exit code and output are the run's. Build output
goes to stderr; the last line of stdout is the result JSON.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources at %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))


def main():
    build()
    binary = os.path.join(BUILD, "perfbench")
    args = [binary] + sys.argv[1:]
    if "--trace" in sys.argv[1:] and "--spans-dir" not in sys.argv[1:]:
        args += ["--spans-dir", os.path.join(ROOT, ".bench_build", "spans")]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    main()
