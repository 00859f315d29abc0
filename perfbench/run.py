#!/usr/bin/env python3
"""Host-performance benchmark of popcornsim.

usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune, runs it with the same arguments
and passes its output through: the last line of stdout is the result
JSON (see perfbench/README.md). Exits with status 2, printing no result,
when the current directory holds no popcornsim sources or the build
fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("no popcornsim sources here; run from the root of a checkout")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        die("build failed")
    sys.exit(subprocess.run([EXE] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
