#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload train_qos_8x8 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --help

The build (Release, the repository's own drlnoc library plus perfbench/src)
goes to .bench_build/perfbench under the repository root; build output goes
to stderr so that the benchmark's result JSON stays the last stdout line.
Arguments are passed through unchanged: the benchmark binary validates them
(exit 2 on an unknown workload or key) before any simulation starts.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = "4"


def build():
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", JOBS],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return os.path.join(BUILD, "perfbench")


def main():
    binary = build()
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
