#!/usr/bin/env python3
"""Check the tables `paper` prints against their golden copies.

    bench/golden_table.py PAPER SCHEME GOLDEN [GOLDEN...]
    bench/golden_table.py --update PAPER SCHEME GOLDEN

With one GOLDEN, runs `PAPER FIGURE`, where FIGURE is GOLDEN's file
name without `.txt`. With several, runs PAPER with no argument - every
figure in one process, cells shared across figures - and expects the
GOLDENs concatenated in the order given, which must be paper's.

PAPER runs with PRORAM_SCHEME=SCHEME, PRORAM_BENCH_SCALE=0.02 and
PRORAM_BENCH_THREADS=2, and with every other PRORAM_* variable removed
from its environment, so its output depends on the code alone. The
thread count is fixed because the banner prints it; the tables
themselves are identical at any thread count.

Check mode exits 1 and prints a unified diff when the output differs.
--update writes one figure's output to GOLDEN instead; use it only for
a change that moves results on purpose (EXPERIMENTS.md, "Golden
tables"). ctest runs check mode once per figure and scheme, and once
for the whole paper per scheme (bench/CMakeLists.txt).
"""

import argparse
import difflib
import os
import pathlib
import subprocess
import sys

FIXED_ENV = {"PRORAM_BENCH_SCALE": "0.02", "PRORAM_BENCH_THREADS": "2"}


def run_paper(cmd, scheme):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PRORAM_")}
    env.update(FIXED_ENV)
    env["PRORAM_SCHEME"] = scheme
    res = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        sys.exit(f"error: {' '.join(cmd)} exited with {res.returncode}")
    return res.stdout


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paper", help="the paper binary")
    ap.add_argument("scheme", choices=("path", "ring"),
                    help="PRORAM_SCHEME for the run")
    ap.add_argument("golden", type=pathlib.Path, nargs="+",
                    help="the committed output to compare against")
    ap.add_argument("--update", action="store_true",
                    help="write the output to GOLDEN instead of "
                         "comparing")
    args = ap.parse_args()

    cmd = [args.paper]
    if len(args.golden) == 1:
        cmd.append(args.golden[0].stem)
    elif args.update:
        ap.error("--update takes one GOLDEN")
    out = run_paper(cmd, args.scheme)
    if args.update:
        args.golden[0].parent.mkdir(parents=True, exist_ok=True)
        args.golden[0].write_text(out)
        print(f"wrote {args.golden[0]}")
        return
    want = "".join(g.read_text() for g in args.golden)
    if out == want:
        return
    sys.stdout.writelines(difflib.unified_diff(
        want.splitlines(keepends=True), out.splitlines(keepends=True),
        fromfile=" + ".join(str(g) for g in args.golden),
        tofile=f"{' '.join(cmd)} ({args.scheme})"))
    sys.exit(1)


if __name__ == "__main__":
    main()
