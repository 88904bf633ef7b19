#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload compile|translate|aot|serve \
        --seed N --seconds S --trace 0|1

Builds the shipped `linguist` binary and the `perfbench` package into
$CARGO_TARGET_DIR (default `.bench_build`), then runs `perfbench` with the
given arguments. Its standard output, whose last line is the JSON result,
passes through unchanged; build output goes to standard error. Exits
non-zero if either build fails or any output is wrong.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "linguist-serve", "--bin", "linguist"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        except OSError as e:
            print(f"run.py: {cmd[0]}: {e}", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return done.returncode
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "perfbench"), *sys.argv[1:],
             "--linguist", os.path.join(release, "linguist")]
    return subprocess.run(bench, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
