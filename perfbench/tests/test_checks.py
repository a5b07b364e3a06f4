#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/tests/test_checks.py

Run from the repository root; the first test builds perfbench if needed.
Each test drives perfbench/run.py the way the benchmark is run and asserts
that a corrupted output makes the run fail, and that a clean one passes.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

sys.path.insert(0, BENCH)
import run as perfbench_run  # noqa: E402  (the benchmark's own entry point)


def bench(workload, seed, *extra, cwd=ROOT):
    """Runs one short workload; returns (exit code, stdout lines)."""
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", "0", *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          check=False, timeout=600)
    return done.returncode, done.stdout.strip().splitlines()


def info(lines, key):
    for line in lines:
        if line.startswith(f"info {key} "):
            return line.split(" ", 2)[2]
    return None


class OutputChecks(unittest.TestCase):

    def test_clean_serve_run_passes(self):
        code, lines = bench("serve_hot", 3)
        self.assertEqual(code, 0, lines[-5:])
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])

    def test_corrupted_answer_fails(self):
        code, lines = bench("serve_hot", 3, "--inject", "answer")
        self.assertNotEqual(code, 0)
        self.assertFalse(json.loads(lines[-1])["correct"])
        self.assertTrue(any("wrong record" in line for line in lines), lines[-5:])

    def test_mismatched_outcome_digest_fails(self):
        code, lines = bench("engine_churn", 5, "--inject", "digest")
        self.assertNotEqual(code, 0)
        self.assertFalse(json.loads(lines[-1])["correct"])
        self.assertTrue(any("digest differs" in line for line in lines), lines[-5:])

    def test_same_seed_gives_same_engine_digest(self):
        first_code, first = bench("engine_churn", 5)
        second_code, second = bench("engine_churn", 5)
        self.assertEqual((first_code, second_code), (0, 0))
        self.assertIsNotNone(info(first, "outcome_digest"))
        self.assertEqual(info(first, "outcome_digest"), info(second, "outcome_digest"))
        _, other = bench("engine_churn", 6)
        self.assertNotEqual(info(first, "outcome_digest"), info(other, "outcome_digest"))

    def test_changed_scenario_document_is_refused(self):
        pins = [{"file": "scenarios/graph_strike_baseline.json", "sha256": "0" * 64}]
        with self.assertRaises(SystemExit) as stop:
            perfbench_run.check_pins(pins)
        self.assertNotEqual(stop.exception.code, 0)

    def test_missing_required_metric_is_refused(self):
        listed = [{"name": "sim.us_per_event", "unit": "us"},
                  {"name": "jobs.matrix.speedup", "unit": "ratio"}]
        metrics = perfbench_run.select_metrics(
            "engine_churn", listed, ["sim.us_per_event"],
            {"sim.us_per_event": {"value": 1.5, "unit": "us"}})
        self.assertEqual(metrics["sim.us_per_event"]["value"], 1.5)
        self.assertEqual(metrics["jobs.matrix.speedup"]["value"], 0)
        with self.assertRaises(SystemExit) as stop:
            perfbench_run.select_metrics("engine_churn", listed, ["sim.us_per_event"], {})
        self.assertNotEqual(stop.exception.code, 0)

    def test_bare_directory_fails_without_result(self):
        bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, lines = bench("serve_hot", 1, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith("{"), lines[-3:])


if __name__ == "__main__":
    unittest.main()
