#!/usr/bin/env python3
"""Check that the ORAM core's software prefetches survived the compiler.

Usage:

    tools/lint/check_prefetch.py build/src/libproram.a

Disassembles the library with `objdump -d -C` and fails unless each
function in REQUIRED holds at least one prefetch instruction
(`prefetcht0`, or `prefetchw` where the target has it). gcc 12 once
deleted every out-of-line helper whose only effect was a
`__builtin_prefetch`, prefetch and all (ROADMAP 2(a)); the helpers are
`always_inline` since, and this check keeps them working.

Exit status: 0 when every function has its prefetch, 1 when one lacks
it or is missing, 77 (ctest's SKIP_RETURN_CODE) when objdump is not
installed or the library is not x86-64 code.
"""

import re
import shutil
import subprocess
import sys

# Demangled name prefixes of the functions that must prefetch.
REQUIRED = (
    "proram::OramScheme::drainPath(",
    "proram::OramScheme::placeInitial(",
)
SKIP = 77

SYMBOL_RE = re.compile(r"^[0-9a-f]+ <(?P<name>.*)>:$")
PREFETCH_RE = re.compile(r"\sprefetch(?:t0|t1|t2|nta|w|wt1)\s")


def prefetch_counts(disassembly):
    """Prefetch instructions per REQUIRED prefix, over every symbol
    (and compiler clone) whose name starts with it."""
    counts = {prefix: None for prefix in REQUIRED}
    current = None
    for line in disassembly.splitlines():
        m = SYMBOL_RE.match(line)
        if m:
            current = next((p for p in REQUIRED
                            if m.group("name").startswith(p)), None)
            if current is not None and counts[current] is None:
                counts[current] = 0
            continue
        if current is not None and PREFETCH_RE.search(line):
            counts[current] += 1
    return counts


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    library = argv[1]
    objdump = shutil.which("objdump")
    if objdump is None:
        print("check_prefetch: objdump not found; skipped")
        return SKIP
    header = subprocess.run([objdump, "-f", library], capture_output=True,
                            text=True)
    if header.returncode != 0:
        print(header.stderr, file=sys.stderr)
        return 1
    if "x86-64" not in header.stdout:
        print("check_prefetch: %s is not x86-64 code; skipped" % library)
        return SKIP
    dis = subprocess.run([objdump, "-d", "-C", library],
                         capture_output=True, text=True)
    if dis.returncode != 0:
        print(dis.stderr, file=sys.stderr)
        return 1
    failed = False
    for prefix, count in prefetch_counts(dis.stdout).items():
        name = prefix.rstrip("(")
        if count is None:
            print("check_prefetch: %s not found in %s" % (name, library))
            failed = True
        elif count == 0:
            print("check_prefetch: %s has no prefetch instruction" % name)
            failed = True
        else:
            print("check_prefetch: %s: %d prefetch instruction(s)"
                  % (name, count))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
