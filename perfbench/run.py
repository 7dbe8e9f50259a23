#!/usr/bin/env python3
"""Builds the repository benchmark from this checkout and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. A traced run writes its
Chrome trace-event JSON to traces/ in the same build directory.
"""

import os
import re
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(1)


def run(command, timeout):
    """Runs `command`, stdout to stderr; kills it if it overruns."""
    try:
        return subprocess.run(command, stdout=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(command))


def configured_source(cache):
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build(source, build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache) and configured_source(cache) != source:
        shutil.rmtree(build_dir)
    if not os.path.exists(cache):
        code = run(["cmake", "-S", source, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
        if code != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
           BUILD_TIMEOUT_S) != 0:
        fail("building the benchmark failed")
    return os.path.join(build_dir, "perfbench")


def flag(args, name):
    for i, arg in enumerate(args[:-1]):
        if arg == name:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    source = os.path.dirname(os.path.realpath(__file__))
    root = os.path.dirname(source)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(source, build_dir)

    if flag(args, "--trace") == "1" and flag(args, "--trace-file") is None:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        name = re.sub(r"[^A-Za-z0-9_.-]", "_", "%s-seed%s.json" % (
            flag(args, "--workload"), flag(args, "--seed")))
        args += ["--trace-file", os.path.join(traces, name)]
    try:
        code = subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("the benchmark overran %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
