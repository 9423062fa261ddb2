#!/usr/bin/env python3
"""Smoke tests of the benchmark: every workload at its smoke size, with
tracing off and on.

    python3 perfbench/test_run.py

Each run must print every metric `BENCHMARK.json` names, with its unit,
report zero failed operations, and show that its correctness checks ran.
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
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)


def run_bench(workload, seed, trace, cwd=ROOT):
    env = {**os.environ, "CARGO_TARGET_DIR": os.path.join(ROOT, ".bench_build")}
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


class SmokeTest(unittest.TestCase):
    def result(self, workload, seed, trace):
        done = run_bench(workload, seed, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])["perfbench"]
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], info["checks"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertTrue(info["checks"], "no correctness check ran")
        for name, count in info["checks"].items():
            self.assertGreater(count["passed"], 0, name)
            self.assertEqual(count["failed"], 0, name)
        self.assertEqual(set(info["tags"]), {"nproc", "profile", "rustc", "commit"})
        return result["metrics"], info

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in BENCHMARK["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    metrics, _ = self.result(workload["name"], 1, trace)
                    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                    self.assertEqual(set(metrics), set(want))
                    for name, unit in want.items():
                        self.assertEqual(metrics[name]["unit"], unit, name)
                        self.assertIsInstance(metrics[name]["value"], (int, float), name)
                    if trace == 0:
                        for name, metric in metrics.items():
                            self.assertGreater(metric["value"], 0, name)
                    else:
                        self.assertGreaterEqual(metrics["trace.coverage"]["value"], 0.9)

    def test_checks_hold_and_counts_repeat_on_a_second_seed(self):
        for workload in ("stream-lines-checked", "serve-batched"):
            with self.subTest(workload=workload):
                first, _ = self.result(workload, 1, 1)
                second, _ = self.result(workload, 2, 1)
                for name in first:
                    if name.endswith(".calls"):
                        self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_fails_without_the_repository_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            done = run_bench("stream-cliques", 1, 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
