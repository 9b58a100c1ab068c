#!/usr/bin/env python3
"""Steadiness report: rerun workloads on several seeds and show the spread.

    python3 crispbench/steadiness.py [--runs 10] [--sets 1] [--workload NAME ...]
                                     [--first-seed 1]

For each set and workload it runs crispbench/run.py --runs times, each with
its own seed (every set uses the same seeds), and prints for every end-to-end
metric the median, the quartiles (statistics.quantiles(values, n=4)), the
interquartile range as a share of the median, the max/min spread, and the
bound from BENCHMARK.json. A metric whose IQR share exceeds its bound fails;
one above a third of its bound is flagged.

With --sets 2 or more it also compares every later set with the first, in
both orders: how much worse one set's median is than the other's, as a share
of the other's, in the metric's "better" direction. A shift above the bound
fails. Each run's metrics go to stderr, one line per run, with the run's
fastest speed probe (a slower host reads higher). Exit code 1 when a
run fails or any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    """The run's result object and its fastest speed probe line (stderr)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, ""
    probe = [l for l in proc.stderr.splitlines() if "fastest speed probe" in l]
    return json.loads(lines[-1]), probe[-1].split(": ", 1)[-1] if probe else ""


def run_set(bench, workloads, runs, first_seed, label):
    """Runs every workload on `runs` seeds; returns ({workload: {metric:
    [values]}}, ok) and prints the spread table of each workload."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    out = {}
    for w in workloads:
        values = {}
        walls = []
        for i in range(runs):
            seed = first_seed + i
            t0 = time.monotonic()
            res, probe = run_once(w, seed, bench["run_seconds"])
            walls.append(time.monotonic() - t0)
            if res is None or not res["correct"] or res["failed"]:
                print(f"{label} {w}: seed {seed} FAILED", flush=True)
                ok = False
                continue
            print(f"{label} {w} seed {seed} ({probe}): {json.dumps(res['metrics'])}",
                  file=sys.stderr, flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        out[w] = values
        print(f"\n{label} {w} ({runs} runs, seeds {first_seed}.."
              f"{first_seed + runs - 1}; wall per run: median "
              f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s)")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'max/min':>8s} {'bound':>6s}")
        for name in sorted(values):
            v = values[name]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            iqr = (q3 - q1) / med if med else float("inf")
            spread = max(v) / min(v) if min(v) > 0 else float("inf")
            bound = bounds.get(name, 0.0)
            flag = ""
            if iqr > bound:
                flag = "  OVER BOUND"
                ok = False
            elif iqr > bound / 3:
                flag = "  over bound/3"
            print(f"  {name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{iqr:8.4f} {spread:8.4f} {bound:6.3f}{flag}", flush=True)
    return out, ok


def worse_by(before, after, better):
    """How much worse `after` is than `before`, as a share of `before`."""
    if before == 0:
        return 0.0 if after == before else float("inf")
    change = (after - before) / before
    return change if better == "lower" else -change


def compare(bench, first, later, label):
    """Median shift between two sets, in both orders; False when a shift
    exceeds the metric's bound."""
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    print(f"\nset 1 vs {label}: median shift, each order "
          "(positive = worse)")
    print(f"  {'workload':12s} {'metric':16s} {'median 1':>12s} {'median 2':>12s} "
          f"{'2 vs 1':>8s} {'1 vs 2':>8s} {'bound':>6s}")
    for w in first:
        for name in sorted(first[w]):
            if name not in later.get(w, {}) or name not in metrics:
                continue
            a = statistics.median(first[w][name])
            b = statistics.median(later[w][name])
            better, bound = metrics[name]["better"], metrics[name]["bound"]
            fwd, rev = worse_by(a, b, better), worse_by(b, a, better)
            flag = ""
            if max(fwd, rev) > bound:
                flag = "  OVER BOUND"
                ok = False
            print(f"  {w:12s} {name:16s} {a:12.6g} {b:12.6g} {fwd:+8.3f} "
                  f"{rev:+8.3f} {bound:6.3f}{flag}", flush=True)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    ok = True
    sets = []
    for s in range(args.sets):
        values, set_ok = run_set(bench, workloads, args.runs, args.first_seed,
                                 f"[set {s + 1}]")
        sets.append(values)
        ok = ok and set_ok
    for s in range(1, len(sets)):
        ok = compare(bench, sets[0], sets[s], f"set {s + 1}") and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
