#!/usr/bin/env python3
"""Unit tests for scripts/bench_compare.py — the gate every bench in CI
runs through. Each test drives the script exactly as CI does (a
subprocess over two report files) and pins the contract: symmetric
derived-drift detection, hard failure on missing keys in either
direction, --require bound semantics, the scale-mismatch refusal, and
the asymmetric (regression-only) wall-ms comparison.

Run directly (python3 tests/scripts/bench_compare_test.py) or via ctest
(scripts_bench_compare).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SCRIPT = os.path.join(ROOT, "scripts", "bench_compare.py")


def report(derived=None, phases=None, scale="quick"):
    out = {"bench": "fixture", "scale": scale}
    if derived is not None:
        out["derived"] = derived
    if phases is not None:
        out["phases"] = [{"name": n, "wall_ms": ms}
                         for n, ms in phases.items()]
    return out


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, payload):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        return path

    def run_compare(self, baseline, current, *extra):
        return subprocess.run(
            [sys.executable, SCRIPT,
             self.write("baseline.json", baseline),
             self.write("current.json", current), *extra],
            capture_output=True, text=True)

    # ---- --derived -----------------------------------------------------

    def test_derived_within_threshold_passes(self):
        base = report(derived={"n100_p_exact": 0.80, "other": 1.0})
        cur = report(derived={"n100_p_exact": 0.82, "other": 99.0})
        proc = self.run_compare(base, cur, "--derived", "n",
                                "--threshold", "0.05")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_derived_drift_fails_in_both_directions(self):
        base = report(derived={"n100_p_exact": 0.80})
        for drifted in (0.90, 0.70):  # +12.5% and -12.5%
            cur = report(derived={"n100_p_exact": drifted})
            proc = self.run_compare(base, cur, "--derived", "n",
                                    "--threshold", "0.05")
            self.assertEqual(proc.returncode, 1, (drifted, proc.stdout))
            self.assertIn("DIVERGED", proc.stdout)

    def test_derived_baseline_key_missing_from_current_fails(self):
        base = report(derived={"n100_p_exact": 0.8, "n100_msgs": 12.0})
        cur = report(derived={"n100_p_exact": 0.8})
        proc = self.run_compare(base, cur, "--derived", "n")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("MISSING", proc.stdout)

    def test_derived_unknown_current_key_fails_symmetrically(self):
        base = report(derived={"n100_p_exact": 0.8})
        cur = report(derived={"n100_p_exact": 0.8, "n100_new_metric": 1.0})
        proc = self.run_compare(base, cur, "--derived", "n")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("NOT-IN-BASELINE", proc.stdout)

    def test_derived_duplicate_key_is_malformed(self):
        base_path = self.write("baseline.json", report(derived={"fig_a": 1.0}))
        cur_path = os.path.join(self.tmp.name, "current.json")
        with open(cur_path, "w", encoding="utf-8") as f:
            f.write('{"bench": "fixture", "scale": "quick", '
                    '"derived": {"fig_a": 5.0, "fig_a": 1.0}}')
        proc = subprocess.run(
            [sys.executable, SCRIPT, base_path, cur_path,
             "--derived", "fig"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("duplicate key 'fig_a'", proc.stderr)

    def test_derived_null_value_is_malformed(self):
        base = report(derived={"fig_a": 1.0, "fig_b": 2.0})
        cur = report(derived={"fig_a": 1.0, "fig_b": None})
        proc = self.run_compare(base, cur, "--derived", "fig")
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("'fig_b' is not a number", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_derived_tolerance_prints_its_precision(self):
        base = report(derived={"fig_a": 1.0})
        proc = self.run_compare(base, base, "--derived", "fig",
                                "--threshold", "0.001")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("tolerance ±0.1%", proc.stdout)

    def test_derived_no_watched_prefix_is_usage_error(self):
        base = report(derived={"other": 1.0})
        cur = report(derived={"other": 1.0})
        proc = self.run_compare(base, cur, "--derived", "n")
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)

    # ---- --require -----------------------------------------------------

    def test_require_bounds(self):
        base = report(derived={})
        cur = report(derived={"gap": 1.10, "p_fail": 0.01})
        ok = self.run_compare(base, cur,
                              "--require", "gap>=1.05",
                              "--require", "gap>1.0",
                              "--require", "p_fail<=0.05",
                              "--require", "p_fail<0.05")
        self.assertEqual(ok.returncode, 0, ok.stdout + ok.stderr)
        violated = self.run_compare(base, cur, "--require", "gap>=1.2")
        self.assertEqual(violated.returncode, 1, violated.stdout)
        self.assertIn("VIOLATED", violated.stdout)
        boundary = self.run_compare(base, cur, "--require", "gap>1.1")
        self.assertEqual(boundary.returncode, 1,
                         "strict > must reject the boundary value")

    def test_require_missing_metric_is_hard_failure(self):
        base = report(derived={})
        cur = report(derived={"gap": 1.10})
        proc = self.run_compare(base, cur, "--require", "absent>=1.0")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("MISSING", proc.stdout)

    def test_require_composes_with_derived(self):
        base = report(derived={"n100_p_exact": 0.8})
        cur = report(derived={"n100_p_exact": 0.8})
        proc = self.run_compare(base, cur, "--derived", "n",
                                "--require", "n100_p_exact>=0.9")
        self.assertEqual(proc.returncode, 1,
                         "derived ok must not mask a violated bound")

    # ---- scale + phases ------------------------------------------------

    def test_scale_mismatch_refuses_to_compare(self):
        base = report(derived={"x": 1.0}, scale="full")
        cur = report(derived={"x": 1.0}, scale="quick")
        proc = self.run_compare(base, cur, "--derived", "x")
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("scale mismatch", proc.stderr)

    def test_phase_regression_fails_but_speedup_passes(self):
        base = report(phases={"metric_repair_all": 100.0})
        slow = report(phases={"metric_repair_all": 150.0})
        fast = report(phases={"metric_repair_all": 50.0})
        proc = self.run_compare(base, slow, "--threshold", "0.20")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("REGRESSION", proc.stdout)
        proc = self.run_compare(base, fast, "--threshold", "0.20")
        self.assertEqual(proc.returncode, 0,
                         "wall-ms gate is regression-only by design")

    # ---- --np-run ------------------------------------------------------

    def np_run_report(self):
        return {
            "scenario": "fixture",
            "algorithms": [{
                "name": "meridian",
                "messages_per_query": 30.5,
                "maintenance_per_event": 12.0,
                "fault": {"failed_probes": 10, "retries": 5,
                          "failed_queries": 3},
                "load": {"total": 1000, "max": 40, "max_node": 7,
                         "median": 9, "gini": 0.41},
                "epochs": [
                    {"epoch": 0, "p_exact_closest": 0.8, "load_gini": 0.30,
                     "rebuilt": False},
                    {"epoch": 1, "p_exact_closest": 0.6, "load_gini": 0.50,
                     "rebuilt": True},
                ],
            }],
        }

    def run_np_run(self, payload, *extra):
        return subprocess.run(
            [sys.executable, SCRIPT, "--np-run",
             self.write("np_run.json", payload), *extra],
            capture_output=True, text=True)

    def test_np_run_flattens_and_gates(self):
        ok = self.run_np_run(
            self.np_run_report(),
            "--require", "meridian_load_gini<=0.5",        # run-level
            "--require", "meridian_load_gini_max<=0.55",   # epoch max
            "--require", "meridian_load_gini_min>=0.25",
            "--require", "meridian_p_exact_closest_mean>=0.69",
            "--require", "meridian_failed_queries<=3",
            "--require", "meridian_messages_per_query<=31")
        self.assertEqual(ok.returncode, 0, ok.stdout + ok.stderr)
        violated = self.run_np_run(
            self.np_run_report(), "--require", "meridian_load_gini_max<=0.4")
        self.assertEqual(violated.returncode, 1, violated.stdout)
        self.assertIn("VIOLATED", violated.stdout)

    def test_np_run_ignores_booleans_and_misses_absent_algos(self):
        report = self.np_run_report()
        proc = self.run_np_run(report,
                               "--require", "meridian_rebuilt_max<=1")
        self.assertEqual(proc.returncode, 1,
                         "bool epoch fields must not become metrics")
        proc = self.run_np_run(report, "--require", "tiers_load_gini<=1")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("MISSING", proc.stdout)

    def test_np_run_refuses_other_modes_and_requires_bounds(self):
        report = self.np_run_report()
        no_bounds = self.run_np_run(report)
        self.assertEqual(no_bounds.returncode, 2, no_bounds.stderr)
        with_current = subprocess.run(
            [sys.executable, SCRIPT, "--np-run",
             self.write("a.json", report), self.write("b.json", report),
             "--require", "x>=0"],
            capture_output=True, text=True)
        self.assertEqual(with_current.returncode, 2, with_current.stderr)

    def test_update_rewrites_baseline(self):
        base = report(derived={"x": 1.0})
        cur = report(derived={"x": 2.0})
        base_path = self.write("baseline.json", base)
        cur_path = self.write("current.json", cur)
        proc = subprocess.run(
            [sys.executable, SCRIPT, base_path, cur_path, "--update"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        with open(base_path, "r", encoding="utf-8") as f:
            self.assertEqual(json.load(f), cur)


if __name__ == "__main__":
    unittest.main()
