#!/usr/bin/env python3
"""Toy-size smoke test of the system benchmark.

Runs every workload in BENCHMARK.json at toy size, untraced and traced,
and checks that each run verifies its answers, fails no operation, and
emits every named metric with its unit.

    python3 perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "3",
         "--trace", str(trace), "--size", "toy"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError("run.py exited %d" % out.returncode)
    return json.loads(out.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        result = run(workload, trace)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        named = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in named})
        for m in named:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)


if __name__ == "__main__":
    unittest.main()
