#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_bench.py

Covers the tail-percentile rule, the validity of every name and unit in
BENCHMARK.json, the gprof roll-up and span arithmetic, and a tiny-size
smoke run of every workload, untraced and traced, that checks each
declared metric is printed with its unit and every output check passes.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        samples = list(range(30, 0, -1))
        value, pct, n = run.tail(samples)
        self.assertEqual(n, 30)
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertAlmostEqual(pct, 100.0 * 20 / 30)

    def test_highest_such_percentile(self):
        # One sample more moves the tail one rank up.
        v30, _, _ = run.tail(range(1, 31))
        v31, _, _ = run.tail(range(1, 32))
        self.assertEqual((v30, v31), (20, 21))

    def test_low_percentile(self):
        self.assertEqual(run.low_percentile(range(40, 0, -1)), 4)
        self.assertEqual(run.low_percentile(range(1, 42)), 5)
        self.assertEqual(run.low_percentile([7.0]), 7.0)
        self.assertEqual(run.low_percentile([]), 0.0)

    def test_too_few_samples(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))
        self.assertEqual(run.tail([]), (0.0, 0.0, 0))


class Spec(unittest.TestCase):
    spec = run.load_spec()

    def metrics(self):
        return self.spec["end_to_end"] + self.spec["per_layer"]

    def test_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertLessEqual(os.path.getsize(
            os.path.join(run.ROOT, "BENCHMARK.json")), 64 * 1024)

    def test_names_and_units(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.metrics()]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for m in self.metrics():
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_workloads(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         run.WORKLOADS)
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_end_to_end_bounds(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        for m in e2e.values():
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], e2e["setup_s"]["bound"])
            self.assertLessEqual(m["bound"], 0.25)


class Helpers(unittest.TestCase):
    def test_flat_profile_rollup(self):
        flat = """Flat profile:

  %   cumulative   self              self     total
 time   seconds   seconds    calls  ms/call  ms/call  name
 60.00      0.60     0.60   100     6.00     6.00  upc780::cpu::Ebox::step()
 20.00      0.80     0.20                             upc780::mem::Cache::read(unsigned int)
 10.00      0.90     0.10                             upc780::deriveSeed(unsigned long, unsigned long)
 10.00      1.00     0.10                             memcpy
"""
        pct = run.rollup_flat_profile(flat)
        self.assertAlmostEqual(pct["cpu"], 60.0)
        self.assertAlmostEqual(pct["mem"], 20.0)
        self.assertAlmostEqual(pct["common"], 10.0)
        self.assertAlmostEqual(pct["other"], 10.0)
        self.assertAlmostEqual(sum(pct.values()), 100.0)

    def test_span_self_time(self):
        spans = [
            {"name": "composite", "parent": -1, "start_ms": 0, "end_ms": 10},
            {"name": "sim.run", "parent": 0, "start_ms": 1, "end_ms": 7},
            {"name": "upc.report", "parent": 0, "start_ms": 7, "end_ms": 9},
        ]
        self.assertAlmostEqual(run.span_self_ms(spans, "composite"), 2.0)
        self.assertAlmostEqual(run.span_self_ms(spans, "sim.run"), 6.0)


class Smoke(unittest.TestCase):
    """Every workload at tiny size prints every declared metric."""

    spec = run.load_spec()

    def bench(self, workload, trace):
        p = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"),
             "--workload", workload, "--seed", "3", "--seconds", "0.2",
             "--trace", str(trace), "--scale", "tiny"],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
            check=True)
        return json.loads(p.stdout.strip().splitlines()[-1])

    def check(self, workload, trace):
        r = self.bench(workload, trace)
        self.assertEqual(set(r), {"correct", "attempted", "failed",
                                  "metrics"})
        self.assertTrue(r["correct"])
        self.assertGreaterEqual(r["attempted"], 1)
        self.assertEqual(r["failed"], 0)
        declared = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(r["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = r["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], float)
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return r["metrics"]

    def test_workloads(self):
        for w in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    m = self.check(w, trace)
                    if trace and w == "composite":
                        self.assertGreater(m["fingerprint.checked"]["value"],
                                           0)
                        self.assertEqual(
                            m["fingerprint.mismatches"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
