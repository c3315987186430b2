#!/usr/bin/env python3
"""Build and run one workload of the host-performance benchmark.

    python3 hostperf/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds hostperf/main.exe with
dune (build output goes to stderr, under _build/ in the checkout), then
runs it with the same arguments; its stdout, whose last line is the
JSON result, passes through unchanged, and so does its exit code.
The run is pinned to one CPU (see README.md). Exits 2 without a result
when the checkout lacks the sources.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "hostperf", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run me from the root of a c4cam checkout", file=sys.stderr)
        return 2
    # no shared dune cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./hostperf/main.exe"],
        stdout=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    # One CPU: every workload does its work on one domain, and serve-tcp's
    # client, listener and connection domains then hand over without
    # cross-CPU wake-ups, whose latency on a virtual machine swings with
    # the host's load.
    cpu = max(os.sched_getaffinity(0))
    return subprocess.run(
        [EXE] + sys.argv[1:],
        timeout=RUN_TIMEOUT_S,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
