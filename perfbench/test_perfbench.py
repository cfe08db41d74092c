"""Tests for the benchmark itself.

Run from the repository root (builds the driver first, then about three
minutes of runs):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

# Per-layer counts that depend only on the operation sequence, never on
# timing, so two single-client runs of one seed must agree exactly.
EXACT_COUNTS = ("objectaware.subjoins_executed", "query.rows_scanned",
                "common.pool_tasks", "cache.hit_ratio")

_runs = {}


def driver(*args):
    return subprocess.run([run.driver_path(), *args], capture_output=True,
                          text=True, timeout=run.RUN_TIMEOUT_S)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def short_run(workload, trace, seed=7):
    """A one-second run, shared between tests that only read its result."""
    key = (workload, trace, seed)
    if key not in _runs:
        _runs[key] = driver("--workload", workload, "--seed", str(seed),
                            "--seconds", "1", "--trace", str(trace))
    return _runs[key]


class PerfbenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench driver failed to build")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_named_metric_is_reported_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = short_run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = result_of(proc)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[section]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_every_declared_workload_runs(self):
        declared = {w["name"] for w in self.spec["workloads"]}
        self.assertTrue(declared <= set(run.WORKLOADS), declared)

    def test_perturbed_result_fails_the_check(self):
        proc = driver("--workload", "chbench_wide", "--seed", "3",
                      "--seconds", "1", "--trace", "0", "--perturb")
        self.assertEqual(proc.returncode, 1)
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("MISMATCH", proc.stdout)

    def test_same_seed_gives_same_operation_sequence(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                def ops_hash(seed):
                    proc = driver("--workload", workload, "--seed", str(seed),
                                  "--seconds", "2", "--print-ops-hash")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    return proc.stdout.strip().splitlines()[-1]
                first = ops_hash(11)
                self.assertEqual(first, ops_hash(11))
                self.assertNotEqual(first, ops_hash(12))

    def test_per_layer_counts_repeat_exactly(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = short_run(workload, 1)
                second = driver("--workload", workload, "--seed", "7",
                                "--seconds", "1", "--trace", "1")
                self.assertEqual(first.returncode, 0, first.stderr)
                self.assertEqual(second.returncode, 0, second.stderr)
                a = result_of(first)["metrics"]
                b = result_of(second)["metrics"]
                for name in EXACT_COUNTS:
                    self.assertEqual(a[name]["value"], b[name]["value"], name)

    def test_fails_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "erp_reporting", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
