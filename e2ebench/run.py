#!/usr/bin/env python3
"""Build and run the end-to-end checker benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py selftest

The script builds e2ebench/main.exe and bin/rlcheckd.exe with dune, then
runs the benchmark, whose last line on stdout is the result as one JSON
object. Without the checker's sources beside it, it exits with status 2
and prints no result.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.basename(HERE)


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} beside {BENCH}/: the checker's sources are missing")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    targets = [f"./{BENCH}/main.exe", "./bin/rlcheckd.exe"]
    try:
        build = subprocess.run(
            [dune, "build", "--root", ROOT, *targets],
            cwd=ROOT,
            stdout=sys.stderr,
            timeout=850,
        )
    except subprocess.TimeoutExpired:
        fail("the build timed out")
    if build.returncode != 0:
        fail("the build failed")
    exe = os.path.join(ROOT, "_build", "default", BENCH, "main.exe")
    daemon = os.path.join(ROOT, "_build", "default", "bin", "rlcheckd.exe")
    # a session of its own, so that a daemon left behind by a benchmark
    # killed outright goes down with the group below
    child = subprocess.Popen(
        [exe, *sys.argv[1:], "--rlcheckd", daemon], cwd=ROOT, start_new_session=True
    )

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        code = child.wait()
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.exit(code if code >= 0 else 3)


if __name__ == "__main__":
    main()
