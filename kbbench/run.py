#!/usr/bin/env python3
"""Builds the kbbench binary from the repository's sources, then runs it.

Usage (from the root of a checkout):

    python3 kbbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/kbbench (configured once, rebuilt
incrementally). Build output goes to stderr; the binary's stdout is passed
through, so the last line of stdout is its JSON result. A traced run also
writes its spans to .bench_build/kbbench-spans/<workload>-<seed>.jsonl.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "kbbench")
BUILD = os.path.join(ROOT, ".bench_build", "kbbench")
SPANS = os.path.join(ROOT, ".bench_build", "kbbench-spans")
# A built run takes well under three minutes; the first build up to 15.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def fail(message):
    print("kbbench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no LTEE sources (src/CMakeLists.txt) next to kbbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keeps the compiler's temporary files inside the build tree.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "kbbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step failed: %s" % error)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD, "kbbench")


def main(argv):
    binary = build()
    flags = dict(zip(argv[::2], argv[1::2]))
    if flags.get("--trace") == "1":
        os.makedirs(SPANS, exist_ok=True)
        argv = argv + ["--spans-out", os.path.join(
            SPANS, "%s-%s.jsonl" % (flags.get("--workload"), flags.get("--seed")))]
    try:
        done = subprocess.run([binary] + argv, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
