#!/usr/bin/env python3
"""End-to-end benchmark of the xqp engine.

Builds perfbench/xqbench (with the xqp library, optimized) and runs one
workload in a fresh process:

    python3 perfbench/run.py --workload xmark|messages|cold_start \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root; snapshot files go to a per-run
directory there that is removed afterwards. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones
(see perfbench/METRICS.md). Build output goes to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("xmark", "messages", "cold_start")
# A run must end within 180 s, the first one (which builds) within 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    return 2


def build(build_dir):
    """Configures (once) and builds xqbench; returns its path or None."""
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "xqbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        return None
    return os.path.join(build_dir, "xqbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs (self-test only)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="alter one reference output (self-test only)")
    args = parser.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("XQP_"))
    if knobs:
        return fail("refusing to run: %s set; XQP_* knobs override the "
                    "engine options the benchmark fixes" % ", ".join(knobs))
    for needed in ("src/CMakeLists.txt", "src/engine.h"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            return fail("xqp sources not found (%s missing)" % needed)

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                              or ".bench_build")
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    if binary is None:
        return fail("build failed")

    scratch = os.path.join(build_root, "scratch-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scratch", scratch]
    if args.trace == "1":
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-%d.jsonl" % (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return fail("benchmark run timed out")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
