#!/usr/bin/env python3
"""Build and run the DSE benchmark.

Run from the root of a source checkout:

    python3 dsebench/run.py --workload md28_sa --seed 1 --seconds 20 --trace 0

It builds dsebench/main.exe with dune (inside the checkout, no shared
build cache), then runs it with the given arguments; the benchmark's
last line of standard output is its JSON result.  Outside a checkout
(no dune-project next to dsebench/) it exits with status 2 and prints
no result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        print("run.py: no dune-project here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "./dsebench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, "_build", "default", "dsebench", "main.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 2
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
