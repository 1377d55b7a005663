#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/tests/test_bench.py

test_rss_is_per_run runs des-1m and then figures-small in one process
(about a minute on 2 cores); the other tests take seconds.
"""

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import steady  # noqa: E402


def ctx_for(workload, seconds=1):
    ctx = run.Ctx(run.parse_args(["--workload", workload, "--seed", "3",
                                  "--seconds", str(seconds)]))
    os.makedirs(ctx.tmp, exist_ok=True)
    return ctx


class RssIsPerRun(unittest.TestCase):
    """A peak RSS belongs to its own run, not to whatever ran before it.

    The criterion-process snapshots this benchmark replaces read the
    process-wide high-water mark, so a 1M-node point after a 10M-node
    point reported the 10M run's memory. Here figures-small runs after
    des-1m in the same invocation and must still report its own ~40 MB.
    """

    def test_rss_is_per_run(self):
        ctx = ctx_for("des-1m")
        run.build(ctx)
        ctx.deadline = None
        des, _ = run.run_des(ctx, 1)
        figs, _ = run.run_figures(ctx)
        self.assertEqual(ctx.failed, 0, ctx.errors)
        des_mb = des["peak_rss_mb"][0]
        figs_mb = figs["peak_rss_mb"][0]
        self.assertGreater(des_mb, 500.0)
        self.assertLess(figs_mb, 200.0)
        # The process-wide mark over all children still shows des-1m's
        # peak: reading it, as the old snapshots did, would be wrong.
        all_children_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        self.assertGreaterEqual(all_children_mb, des_mb * 0.99)


class Contract(unittest.TestCase):
    def test_outside_a_checkout_it_fails_without_a_result(self):
        ctx = ctx_for("des-1m")
        bare = os.path.join(ctx.tmp, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "des-1m", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)

    def test_every_pool_seed_has_recorded_outputs(self):
        expected = run.load_expected()
        self.assertTrue(expected["pool"])
        for key in ("des-k1", "figures-small"):
            self.assertEqual(len(expected[key]), len(expected["pool"]), key)
        for row in expected["candidates"]:
            passes = all(row[k]["err_pct"] <= run.ERR_LIMIT_PCT for k in ("k1", "k2"))
            if row["seed"] in expected["pool"]:
                self.assertTrue(passes, row)

    def test_declared_metrics_are_unique(self):
        for trace in (0, 1):
            names = run.declared_metrics(trace)
            self.assertEqual(len(names), len(set(names)))


class Steadiness(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 10.3]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(steady.spread(values), (q3 - q1) / statistics.median(values))

    def test_worse_by_follows_the_better_direction(self):
        self.assertAlmostEqual(steady.worse_by(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(steady.worse_by(10.0, 11.0, "higher"), -0.1)

    def test_report_flags_disagreeing_sets(self):
        bench = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                                 "bound": 0.1}]}

        def rec(s, v):
            return {"workload": "w", "set": s, "seed": 0, "result": {
                "correct": True, "metrics": {"wall_s": {"value": v, "unit": "s"}}}}

        same = [rec(1, 10.0 + i * 0.01) for i in range(5)] + \
               [rec(2, 10.0 + i * 0.01) for i in range(5)]
        slower = [rec(1, 10.0 + i * 0.01) for i in range(5)] + \
                 [rec(2, 12.0 + i * 0.01) for i in range(5)]
        with open(os.devnull, "w") as null:
            stdout, sys.stdout = sys.stdout, null
            try:
                self.assertTrue(steady.report(same, bench))
                self.assertFalse(steady.report(slower, bench))
            finally:
                sys.stdout = stdout

    def test_report_checks_every_spread_setup_s_too(self):
        bench = {"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower",
                                 "bound": 0.25}]}

        def rec(v):
            return {"workload": "w", "set": 1, "seed": 0, "result": {
                "correct": True, "metrics": {"setup_s": {"value": v, "unit": "s"}}}}

        bimodal = [rec(v) for v in (0.003, 0.003, 0.003, 0.013, 0.013, 0.013)]
        with open(os.devnull, "w") as null:
            stdout, sys.stdout = sys.stdout, null
            try:
                self.assertFalse(steady.report(bimodal, bench))
            finally:
                sys.stdout = stdout


if __name__ == "__main__":
    os.chdir(os.path.dirname(BENCH))
    unittest.main()
