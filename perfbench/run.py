#!/usr/bin/env python3
"""Builds the benchmark and the gramer-serve daemon from source, then runs
one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
(default: .bench_build in the checkout). Cargo's output goes to standard
error; the benchmark's result is the last line of standard output.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    cargo_build(os.path.join(HERE, "Cargo.toml"))
    cargo_build(os.path.join(ROOT, "Cargo.toml"),
                "-p", "gramer-serve", "--bin", "gramer-serve")
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--root", ROOT, "--serve-bin", os.path.join(release, "gramer-serve")]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
