#!/usr/bin/env python3
"""Builds the t1map benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload table1-map --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench when that variable is set,
else to .bench_build/perfbench; run records and traces go to the
perfbench-out directory next to it.  Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result.  Exits
non-zero, without a result, when the build fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release",
                   # No compiler cache: it would write outside the checkout.
                   "-DT1MAP_CCACHE=OFF"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["table1-map", "verify", "serve-mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no t1map source tree around " + HERE)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)  # no-op when already absolute
    try:
        binary = build(os.path.join(target, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    # The benchmark writes its records, trace, socket and disk-cache
    # directories into its working directory.
    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", "."]
    return subprocess.run(cmd, cwd=out_dir).returncode


if __name__ == "__main__":
    sys.exit(main())
