#!/usr/bin/env python3
"""Build the benchmark from source, pin it to one vCPU, and run it.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to .bench_build/ and the
run's scratch files to .perfbench_run/, both inside the checkout. The last
line of standard output is the JSON result; see perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
EXE = os.path.join(BUILD, "default", "perfbench", "perfbench.exe")
CLI = os.path.join(BUILD, "default", "bin", "repro_cli.exe")


def main():
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("bin", "repro_cli.ml")):
        sys.exit("perfbench: no repro_cli sources here; run from a checkout of the repo")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD,
             "bin/repro_cli.exe", "perfbench/perfbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    # The highest vCPU this process may use. Children inherit the mask, so
    # the daemon, every synopsis-build and the load generator share it.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    os.execv(EXE, [EXE, "--cli", CLI, "--cpu", str(cpu)] + sys.argv[1:])


if __name__ == "__main__":
    main()
