#!/usr/bin/env python3
"""The benchmark's own test: every workload in small mode, both modes.

    python3 perfbench/test_bench.py

Checks that each run prints a well-formed result line carrying exactly the
metrics BENCHMARK.json names (end-to-end with --trace 0, per-layer with
--trace 1) with their units, that outputs check out, and that the fixed-seed
totals repeat exactly between two runs of the same seed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
# Two workloads run by name only (see harness.cpp); test them too.
WORKLOADS = ([w["name"] for w in BENCH["workloads"]] +
             ["clustered_few", "mean_field_1e9"])


def run(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--small"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.rstrip("\n").split("\n")
    return proc.returncode, lines, json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            printed = result["metrics"][m["name"]]
            self.assertEqual(printed["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed["value"], (int, float), m["name"])

    def test_end_to_end_metrics_and_repeatable_totals(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                code, lines, result = run(name, 0)
                self.assertEqual(code, 0)
                self.check_metrics(result, BENCH["end_to_end"])
                for m in BENCH["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
                _, again, _ = run(name, 0)
                totals = [l for l in lines if l.startswith("totals pass0")]
                self.assertEqual(len(totals), 1)
                self.assertEqual(
                    totals, [l for l in again if l.startswith("totals pass0")])

    def test_per_layer_metrics(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                code, lines, result = run(name, 1)
                self.assertEqual(code, 0)
                self.check_metrics(result, BENCH["per_layer"])
                self.assertIn("traced totals match the batch totals", lines)


if __name__ == "__main__":
    unittest.main()
