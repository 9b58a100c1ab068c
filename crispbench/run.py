#!/usr/bin/env python3
"""Build and run the CRISP end-to-end benchmark.

    python3 crispbench/run.py --workload edge_packed --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It configures and builds
crispbench/CMakeLists.txt (which pulls in the library from ../src) under
$CARGO_TARGET_DIR, or .bench_build when that is unset, runs the helper
self-test, then runs one workload. The benchmark's last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code is
0 only when the build, the self-test and every output check pass.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("edge_packed", "fleet_zipf", "personalize")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "crispbench", "crispbench_selftest"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def valid_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        return False
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return False
    metrics = res["metrics"]
    if not metrics or not all(set(m) == {"value", "unit"} for m in metrics.values()):
        return False
    # Traced runs carry layer metrics only; end-to-end names have no dot.
    return all(("." in name) == trace for name in metrics)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(root), "crispbench")
    if not build(build_dir):
        return 1

    selftest = subprocess.run([os.path.join(build_dir, "crispbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        log("helper self-test failed; not measuring")
        return 1

    cmd = [os.path.join(build_dir, "crispbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines or not valid_result(lines[-1], bool(args.trace)):
        log(f"benchmark printed no valid result (exit {proc.returncode})")
        return 1
    print(lines[-1], flush=True)
    if proc.returncode != 0:
        log(f"output checks failed (exit {proc.returncode})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
