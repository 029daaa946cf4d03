#!/usr/bin/env python3
"""Build the layered benchmark harness from this checkout and run one workload.

Run from the repository root:

    python3 rlbfbench/run.py --workload infer-rlbf --seed 1 --seconds 20 --trace 0
    python3 rlbfbench/run.py --self-test

The harness and the rlbf library are compiled from ./src with the root
build's flags into $CARGO_TARGET_DIR/rlbfbench (default
.bench_build/rlbfbench); a second run only relinks what changed. Outputs
(traced-run Chrome traces, layer tables, the set-up's scratch model
store) go to rlbfbench_out/. The harness's exit status and standard
output pass through unchanged; its last line is the result JSON.
"""
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def fail(message):
    print(f"rlbfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then build incrementally; the log goes to stderr on failure."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "sim", "event_sim.h")):
        fail(f"no rlbf sources under {REPO_ROOT}/src; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build step failed: {' '.join(step)}")


def main():
    args = sys.argv[1:]
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "rlbfbench")
    build(build_dir)
    if args == ["--self-test"]:
        binary, args = os.path.join(build_dir, "rlbfbench_checks_test"), []
    else:
        binary = os.path.join(build_dir, "rlbfbench")
        args = args + ["--out_dir", "rlbfbench_out"]
    sys.stdout.flush()
    sys.stderr.flush()
    # Replace this process: the harness is then the only process to wait on.
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
