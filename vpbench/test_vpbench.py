#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 vpbench/test_vpbench.py

Run from the repository root. Builds vpbench like run.py does, then checks
that the correctness check catches a wrong expected loss, that a run prints
exactly the metrics BENCHMARK.json declares, that the traced run's counts
match the paper, and that the benchmark refuses to run without the library
sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own launcher)

BUILD_DIR = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def vpbench(*args):
    """Run the binary; returns (exit code, parsed last line, full stdout)."""
    binary = run.build(BUILD_DIR)
    work_dir = os.path.join(BUILD_DIR, "runs")
    os.makedirs(work_dir, exist_ok=True)
    proc = subprocess.run([binary, *args, "--work-dir", work_dir], stdout=subprocess.PIPE,
                          text=True, timeout=170)
    last = proc.stdout.strip().splitlines()[-1]
    return proc.returncode, json.loads(last), proc.stdout


class CorrectnessCheck(unittest.TestCase):
    def test_clean_run_reports_every_end_to_end_metric(self):
        code, result, _ = vpbench("--workload", "recover", "--seed", "3", "--seconds", "2",
                                  "--trace", "0")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        reported = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(reported, declared)
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_corrupted_expected_loss_is_counted_bitwise(self):
        _, result, out = vpbench("--workload", "recover", "--seed", "3", "--seconds", "1",
                                 "--trace", "0", "--corrupt-expected")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertNotIn("failed_frac 0.000000", out)

    def test_corrupted_expected_loss_is_counted_with_tolerance(self):
        _, result, _ = vpbench("--workload", "vocab-heavy", "--seed", "3", "--seconds", "1",
                               "--trace", "0", "--corrupt-expected")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


class TracedRun(unittest.TestCase):
    def traced(self, workload):
        code, result, _ = vpbench("--workload", workload, "--seed", "5", "--seconds", "2",
                                  "--trace", "1")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, declared)
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_alg1_counts(self):
        m = self.traced("comm-bound-shm")
        self.assertEqual(m["core.output_barriers_per_mb"], 2)
        self.assertEqual(m["analysis.activation_peak_mb"], 4 + 2)

    def test_alg2_counts(self):
        m = self.traced("vocab-heavy")
        self.assertEqual(m["core.output_barriers_per_mb"], 1)
        self.assertEqual(m["analysis.activation_peak_mb"], 4 + 1)


class MissingSources(unittest.TestCase):
    def test_refuses_without_library_sources(self):
        bare = os.path.join(BUILD_DIR, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "vpbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        proc = subprocess.run([sys.executable, "vpbench/run.py", "--workload", "recover",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
