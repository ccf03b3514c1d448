"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench/tests

Run from the repository root. The smoke tests build the benchmark binary (like any
benchmark run) and run every workload at a tiny fleet size.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402

TINY = {"fleet_week": 3, "churn_spill": 8, "query_mix": 3}


def bench(workload, trace, *extra, seed=11):
    """Runs run.py at a tiny size; returns the parsed last stdout line."""
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--networks", str(TINY[workload]), "--min-queries", "8", "--out-dir", out,
               *extra]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=900)
        if proc.returncode != 0:
            raise AssertionError(f"run.py exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(20, 0, -1))  # 20 samples, unsorted
        self.assertEqual(run.nearest_rank(values, 50), (10, 20))
        self.assertEqual(run.nearest_rank(values, 95), (19, 20))
        self.assertEqual(run.nearest_rank(values, 100), (20, 20))
        self.assertEqual(run.nearest_rank([7.5], 95), (7.5, 1))
        # 200 samples leave exactly ten beyond p95.
        value, n = run.nearest_rank(list(range(1, 201)), 95)
        self.assertEqual((value, n), (190, 200))
        self.assertEqual(len([v for v in range(1, 201) if v > value]), 10)
        with self.assertRaises(ValueError):
            run.nearest_rank([], 50)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metrics_match_run_py(self):
        path = os.path.join(ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


class SmokeTest(unittest.TestCase):
    def check(self, result, units):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), set(units))
        for name, unit in units.items():
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_prints_every_metric(self):
        for workload in run.WORKLOADS:
            for trace, units in ((0, run.E2E), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    result = bench(workload, trace)
                    self.check(result, units)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    for name in units:
                        if trace == 0:
                            self.assertGreater(result["metrics"][name]["value"], 0, name)
                    if trace == 1:
                        self.assertEqual(result["metrics"]["error_rate"]["value"], 0)
                        if workload == "churn_spill":
                            self.assertGreater(
                                result["metrics"]["tsdb.segments_spilled"]["value"], 0)


class GateTest(unittest.TestCase):
    def test_wrong_signature_counts_as_failed(self):
        with tempfile.TemporaryDirectory() as tmp:
            sigs = os.path.join(tmp, "signatures.json")
            with open(sigs, "w") as f:
                json.dump({f"fleet_week/{TINY['fleet_week']}/11": "00000000-00000000-00000000"}, f)
            result = bench("fleet_week", 1, "--signatures", sigs)
        # Every campaign fails its signature gate; its queries pass: four
        # after the warm-up campaign, sixteen after each measured one.
        failed = result["failed"]
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(failed, 1)
        self.assertEqual(result["attempted"], failed + 4 + 16 * (failed - 1))
        self.assertAlmostEqual(result["metrics"]["error_rate"]["value"],
                               failed / result["attempted"])

    def test_wrong_oracle_answer_counts_as_failed(self):
        result = bench("query_mix", 0, "--perturb-oracle", "3")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
