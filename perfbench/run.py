#!/usr/bin/env python3
"""Build the repository's `xtsim-serve` and the `perfbench` package, then run
one benchmark workload.

    python3 perfbench/run.py --workload cam-fluid --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. Cargo builds into $CARGO_TARGET_DIR
(default `.bench_build`); build output goes to stderr, and the last line of
standard output is the result JSON printed by `perfbench`.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    needed = ["Cargo.toml", os.path.join("crates", "serve", "Cargo.toml"), os.path.join("crates", "core", "Cargo.toml")]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"run.py: not the root of a checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "xtsim-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1

    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:], "--serve-bin", os.path.join(release, "xtsim-serve")]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
