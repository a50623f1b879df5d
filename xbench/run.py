#!/usr/bin/env python3
"""Builds and runs the xdgp benchmark.

    python3 xbench/run.py --workload <churn|durable|elastic> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 xbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
driver (library sources from src/, benchmark sources from xbench/driver/)
into .bench_build/, leaving the repository's own build files alone; later
calls rebuild only what changed. Build output goes to standard error; the
driver's result is the last line of standard output.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
SOURCE = os.path.join(ROOT, "xbench")


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    try:
        binary = build("xbench_selftest" if args.self_test else "xbench")
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1

    os.chdir(ROOT)
    if args.self_test:
        return subprocess.run([binary], check=False).returncode

    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"run.py: driver exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    result = json.loads(lines[-1])  # refuse to print anything but a result
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
