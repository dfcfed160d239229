#!/usr/bin/env python3
"""Build and run the quicert benchmark.

Run from the root of a checkout of the repository:

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (benchmark/Cargo.toml) that
depends on the repository by path. This script builds it in release mode
into $CARGO_TARGET_DIR (default: .bench_build), then runs the binary with
the same arguments. The binary's standard output ends with one JSON result
line. Traced runs write their spans under <target dir>/traces.

Build output goes to standard error; a failed build exits non-zero without
printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def tool_output(*cmd, env=None):
    """First line of a tool's output, or 'unknown' when it cannot run."""
    try:
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=30, check=True, env=env
        )
        return done.stdout.strip().splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        return "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            MANIFEST,
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return build.returncode or 1

    env["QUICERT_BENCH_RUSTC"] = tool_output("rustc", "-V")
    # A checkout without .git reads as unknown: git may not look for a
    # repository above the checkout.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    env["QUICERT_BENCH_GIT_REV"] = tool_output(
        "git", "-C", ROOT, "rev-parse", "--short", "HEAD", env=git_env
    )
    env["QUICERT_BENCH_TRACE_DIR"] = os.path.join(target, "traces")
    binary = os.path.join(target, "release", "quicert-benchmark")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
