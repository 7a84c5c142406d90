#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The library and the qpwm_benchmark program
are built into $CARGO_TARGET_DIR (default .bench_build) under the root; the
program's stdout is passed through, and its last line is the result object.
Exits non-zero, without printing a result, if the build or the run fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("plan-embed", "detect-trace", "stream-soak", "tree-detect")
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        # One build at a time, should runs ever overlap.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        generated = [os.path.join(build_dir, f) for f in ("Makefile", "build.ninja")]
        if not any(os.path.exists(f) for f in generated):
            steps.append(["cmake", "-S", os.path.join(root, "benchmark"),
                          "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs,
                      "--target", "qpwm_benchmark"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "qpwm_benchmark")


def source_id(root):
    """The commit when the checkout is a git repository, else a digest of
    the library and benchmark sources."""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            if done.returncode == 0 and done.stdout.strip():
                return done.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", "benchmark"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out_root = os.path.join(root, target)
    binary = build(root, os.path.join(out_root, "benchmark"))
    traces = os.path.join(out_root, "traces")
    os.makedirs(traces, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", source_id(root), "--out-dir", traces]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} ran past {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:])
        fail(f"benchmark exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line of the benchmark's output is not a JSON object")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("result object has the wrong keys")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
