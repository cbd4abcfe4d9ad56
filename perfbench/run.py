#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark (the program's libraries from ../src plus the
perfbench driver, Release) into .bench_build/perfbench, then runs one
workload and relays its output. The last line of standard output is the
JSON result.

    python3 perfbench/run.py --workload batch-ocr|serve-read|stream-serve|all \
        --seed N --seconds S --trace 0|1 [--tiny] [--corrupt-output]

`all` runs the three workloads one after another, each in its own process,
and relays each one's output under a "== <workload>" line. Build output
goes to standard error. Exits non-zero, printing no result, when the build
or a run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("batch-ocr", "serve-read", "stream-serve")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-output", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        command = [os.path.join(BUILD, "perfbench"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds),
                   "--trace", str(args.trace),
                   "--trace-dir", os.path.join(ROOT, ".bench_build", "traces")]
        if args.tiny:
            command.append("--tiny")
        if args.corrupt_output:
            command.append("--corrupt-output")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("perfbench: %s failed with code %d\n"
                             % (workload, done.returncode))
            return 1
        if len(workloads) > 1:
            sys.stdout.write("== %s\n" % workload)
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
