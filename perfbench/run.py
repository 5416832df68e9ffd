#!/usr/bin/env python3
"""Build and run the DudeTM benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <ycsb-rw|tpcc-neworder|ycsb-paged> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a standalone Cargo package that depends on the
repository crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the given arguments. The
benchmark's report goes to standard output and ends with one JSON result
line; traced runs also write their spans under
`$CARGO_TARGET_DIR/perfbench-trace/`. The exit code is the benchmark's:
non-zero when the build fails, a correctness check fails, or the run
overruns its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark stops itself well before this; this is the backstop.
RUN_TIMEOUT_S = 175


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(os.path.join(ROOT, target))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "dude-perfbench")
    argv = [binary] + sys.argv[1:] + ["--trace-dir", os.path.join(target, "perfbench-trace")]
    try:
        run = subprocess.run(argv, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was killed" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
