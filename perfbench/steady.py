#!/usr/bin/env python3
"""Steadiness report: do repeated runs of the benchmark agree?

Run from the root of a checkout:

    python3 perfbench/steady.py --workload des-1m --workload cluster-2p --runs 10 --sets 2

It runs run.py sets × runs times per workload (every workload in
BENCHMARK.json by default), each with its own --seed, and prints for every
workload and end-to-end metric, per set, the median,
the quartiles (statistics.quantiles(values, n=4)) and the spread: the
interquartile distance as a share of that set's median. For every set
after the first it prints the ratio of its median to set 1's median. A
metric is `steady` when each set's spread is below a third of its bound,
and the sets `agree` when no later set's median is worse than set 1's by
more than the bound. It exits non-zero when a run fails, a spread exceeds
its bound, or the sets disagree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """(q3 - q1) / median: the steadiness measure the bounds are checked with."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def worse_by(base, value, better):
    """How much worse `value` is than `base`, as a share of base (< 0: better)."""
    return (value - base) / base if better == "lower" else (base - value) / base


def run_sets(workloads, runs, sets, seed_base, seconds):
    """Runs run.py sets × runs times per workload with distinct seeds."""
    records = []
    for w in workloads:
        for s in range(sets):
            for i in range(runs):
                seed = seed_base + s * runs + i
                argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                p = subprocess.run(argv, capture_output=True, text=True)
                lines = p.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
                records.append({"workload": w, "set": s + 1, "seed": seed, "result": result})
                status = "ok" if result and result["correct"] else "FAILED"
                print(f"[steady] {w} set {s + 1} seed {seed}: {status}", file=sys.stderr,
                      flush=True)
    return records


def report(records, bench):
    ok = True
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for w in dict.fromkeys(r["workload"] for r in records):
        recs = [r for r in records if r["workload"] == w]
        good = [r for r in recs if r["result"] and r["result"]["correct"]]
        print(f"\n== {w}: {len(good)}/{len(recs)} runs correct")
        if len(good) != len(recs):
            ok = False
        sets = sorted({r["set"] for r in good})
        print(f"{'metric':<14}{'set':>4}{'n':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound/3':>9}{'vs set 1':>10}  verdict")
        for name, m in bounds.items():
            base = None
            for s in sets:
                vals = [r["result"]["metrics"][name]["value"] for r in good if r["set"] == s
                        and name in r["result"]["metrics"]]
                if len(vals) < 2:
                    continue
                q1, med, q3 = quartiles(vals)
                sp = spread(vals)
                verdict = ["steady" if sp < m["bound"] / 3 else "UNSTEADY"]
                ok &= sp <= m["bound"]
                rel = ""
                if base is None:
                    base = statistics.median(vals)
                else:
                    wb = worse_by(base, statistics.median(vals), m["better"])
                    rel = f"{statistics.median(vals) / base:.4f}"
                    agree = wb <= m["bound"]
                    verdict.append("agree" if agree else "DISAGREE")
                    ok &= agree
                print(f"{name:<14}{s:>4}{len(vals):>4}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{sp:>9.4f}{m['bound'] / 3:>9.4f}{rel:>10}  {' '.join(verdict)}")
    print("\nspread = (q3 - q1) / median of the same set; 'vs set 1' = set median / set 1 "
          "median (base: set 1).")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()
    bench = load_benchmark()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    records = run_sets(workloads, args.runs, args.sets, args.seed_base, bench["run_seconds"])
    return 0 if report(records, bench) else 1


if __name__ == "__main__":
    sys.exit(main())
