#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

The benchmark is the `perfbench` binary of the Cargo package in this
directory, built in release mode against the repository's crates (into
`$CARGO_TARGET_DIR`, default `.bench_build`). Its standard output is passed
through; the last line is the JSON result. The exit code is nonzero when the
build fails, when a correctness check fails, or when the result line is
missing or malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed with exit code {build.returncode}", file=sys.stderr)
        return 1

    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        spans = os.path.join(target, "perfbench-spans", f"{args.workload}-seed{args.seed}.json")
        command += ["--spans-out", spans]
    run = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0:
        # Diagnostics only: a failed run prints no result line.
        for line in lines[:-1]:
            print(line, file=sys.stderr)
        if lines:
            print(lines[-1], file=sys.stderr)
        print(f"perfbench: run failed with exit code {run.returncode}", file=sys.stderr)
        return run.returncode
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: the run printed no JSON result line", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        print(f"perfbench: malformed or incorrect result: {lines[-1]}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
