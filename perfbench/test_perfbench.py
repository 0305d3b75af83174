#!/usr/bin/env python3
"""Short-mode tests of the repo benchmark.

    python3 perfbench/test_perfbench.py

For every workload: the runner prints every end-to-end metric with its unit
(latencies with their sample counts) and every per-layer metric, the traced
run's virtual metrics equal the untraced run's, and two same-seed driver
processes print identical virtual metrics and schedule hashes.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

BINARY = None


def runner(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--short"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                       cwd=bench.ROOT, timeout=600)
    assert p.returncode == 0, f"runner failed for {workload} (trace {trace})"
    lines = p.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        global BINARY
        BINARY = bench.build()

    def check_result(self, result, units):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(units))
        for name, unit in units.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)

    def test_benchmark_json_matches_runner(self):
        with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(bench.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, bench.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, bench.PER_LAYER)

    def test_end_to_end_metrics_printed(self):
        for w in bench.WORKLOADS:
            with self.subTest(workload=w):
                table, result = runner(w, 0)
                self.check_result(result, bench.END_TO_END)
                for name in bench.END_TO_END:
                    row = [line for line in table if line.split()[:1] == [name]]
                    self.assertEqual(len(row), 1, name)
                    if name.endswith("_us"):
                        self.assertRegex(row[0], r"samples [1-9][0-9]*$")
                self.assertGreater(result["metrics"]["vops_per_s"]["value"], 0)

    def test_per_layer_metrics_printed(self):
        for w in bench.WORKLOADS:
            with self.subTest(workload=w):
                _, result = runner(w, 1)
                self.check_result(result, bench.PER_LAYER)
                layer = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertGreater(layer["sim.events_per_op"], 0)
                self.assertGreater(layer["rpc.wire_us"], 0)
                if w == "overwrite_gray":
                    self.assertGreater(layer["obs.health_detect_us"], 0)

    def test_same_seed_runs_identical(self):
        for w in bench.WORKLOADS:
            with self.subTest(workload=w):
                a = bench.run_driver(BINARY, w, 3, False, True)
                b = bench.run_driver(BINARY, w, 3, False, True)
                t = bench.run_driver(BINARY, w, 3, True, True)
                self.assertEqual(bench.deterministic_part(a), bench.deterministic_part(b))
                self.assertEqual(bench.deterministic_part(a), bench.deterministic_part(t))
                c = bench.run_driver(BINARY, w, 4, False, True)
                self.assertNotEqual(a["trace_hash"], c["trace_hash"])


if __name__ == "__main__":
    unittest.main()
