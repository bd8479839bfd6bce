#!/usr/bin/env python3
"""Builds and runs the fairswap benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package in release mode (offline, against the
locked dependency graph; `CARGO_TARGET_DIR` defaults to `.bench_build`)
and runs it with the same arguments. The last line of standard output is
the run's JSON result; build output goes to standard error. Exits
non-zero, without a result, if the build or the run fails.
"""

import os
import subprocess
import sys


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join("perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
