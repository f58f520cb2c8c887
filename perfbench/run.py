#!/usr/bin/env python3
"""Builds the server and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload serve_hier --seed 1 --seconds 10 --trace 0

Run it from the repository root. Both builds go to $CARGO_TARGET_DIR
(default: .bench_build in the working directory) and are offline: every
dependency is a path dependency inside the repository. Build output goes
to stderr; stdout is the benchmark's report, whose last line is the JSON
result. A failed build exits nonzero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "lorentz-cli", "--bin", "lorentz"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if not os.path.exists(cmd[cmd.index("--manifest-path") + 1]):
            print(f"error: {cmd[cmd.index('--manifest-path') + 1]} is missing; "
                  "run from the repository root", file=sys.stderr)
            return 2
        built = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            print("error: build failed: " + " ".join(cmd), file=sys.stderr)
            return built.returncode or 1
    bench = os.path.join(target, "release", "lorentz-perfbench")
    server = os.path.join(target, "release", "lorentz")
    run = subprocess.run([bench, *sys.argv[1:], "--lorentz", server], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
