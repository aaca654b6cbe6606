#!/usr/bin/env python3
"""Builds the host-time benchmark from source and runs one workload.

Run from the repository root:

    python3 hostbench/run.py --workload oltp --seed 1 --seconds 15 --trace 0

The engine library (../src) and the benchmark are compiled with CMake into
$CARGO_TARGET_DIR/hostbench (default .bench_build/hostbench); later runs
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. With --trace 1 the Chrome trace-event
file of the run is written to <build>/traces/<workload>-seed<N>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("oltp", "checkpoint", "restart")


def build(build_dir):
    engine_src = os.path.join(HERE, os.pardir, "src", "CMakeLists.txt")
    if not os.path.isfile(engine_src):
        sys.exit("hostbench: engine sources not found next to hostbench/; "
                 "run from a full checkout")
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "hostbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "hostbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "hostbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("hostbench: build failed: %s" % err)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    # MMDB_* variables override engine options (recovery threads, instant
    # recovery, shards); the benchmark pins those itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MMDB_")}
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
