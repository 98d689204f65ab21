#!/usr/bin/env python3
"""Check one figure binary's printed tables against its golden copy.

    bench/golden_table.py BINARY SCHEME GOLDEN
    bench/golden_table.py --update BINARY SCHEME GOLDEN

The binary runs with PRORAM_SCHEME=SCHEME, PRORAM_BENCH_SCALE=0.02 and
PRORAM_BENCH_THREADS=2, and with every other PRORAM_* variable removed
from its environment, so its output depends on the code alone. The
thread count is fixed because the banner prints it; the tables
themselves are identical at any thread count.

Check mode exits 1 and prints a unified diff when the output differs
from GOLDEN. --update writes the output to GOLDEN instead; use it only
for a change that moves results on purpose (EXPERIMENTS.md, "Golden
tables"). ctest runs check mode once per binary and scheme
(bench/CMakeLists.txt).
"""

import argparse
import difflib
import os
import pathlib
import subprocess
import sys

FIXED_ENV = {"PRORAM_BENCH_SCALE": "0.02", "PRORAM_BENCH_THREADS": "2"}


def run_binary(binary, scheme):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PRORAM_")}
    env.update(FIXED_ENV)
    env["PRORAM_SCHEME"] = scheme
    res = subprocess.run([binary], env=env, capture_output=True,
                         text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        sys.exit(f"error: {binary} exited with {res.returncode}")
    return res.stdout


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("binary", help="figure binary to run")
    ap.add_argument("scheme", choices=("path", "ring"),
                    help="PRORAM_SCHEME for the run")
    ap.add_argument("golden", type=pathlib.Path,
                    help="the committed output to compare against")
    ap.add_argument("--update", action="store_true",
                    help="write the output to GOLDEN instead of "
                         "comparing")
    args = ap.parse_args()

    out = run_binary(args.binary, args.scheme)
    if args.update:
        args.golden.parent.mkdir(parents=True, exist_ok=True)
        args.golden.write_text(out)
        print(f"wrote {args.golden}")
        return
    want = args.golden.read_text()
    if out == want:
        return
    sys.stdout.writelines(difflib.unified_diff(
        want.splitlines(keepends=True), out.splitlines(keepends=True),
        fromfile=str(args.golden), tofile=f"{args.binary} ({args.scheme})"))
    sys.exit(1)


if __name__ == "__main__":
    main()
