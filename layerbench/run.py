#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 layerbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark binary is built with cargo
(offline, release) into $CARGO_TARGET_DIR, or .bench_build when unset;
build output goes to stderr. The binary's stdout is passed through, so
the last line is the run's JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("layerbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "layerbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        print("layerbench: run timed out", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"layerbench: run failed with code {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
