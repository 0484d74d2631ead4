#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

The span arithmetic is checked on synthetic traces. The smoke test
builds the benchmark (into $CARGO_TARGET_DIR or .bench_build), runs every
workload at tiny sizes traced and untraced, and checks that each run
prints every metric BENCHMARK.json declares, by name and with its unit.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import ledger  # noqa: E402


def span(id_, parent, name, start, end, request=None):
    s = {"id": id_, "parent": parent, "name": name, "start_ns": start,
         "end_ns": end}
    if request is not None:
        s["request"] = request
    return s


class SelfTimeTest(unittest.TestCase):
    def test_union_of_children_is_subtracted_once(self):
        spans = [
            span(1, 0, "serve.request", 0, 100, 7),
            # Overlapping children: their union [10, 60) covers 50 ns.
            span(2, 1, "serve.execute", 10, 40, 7),
            span(3, 1, "serve.execute", 30, 60, 7),
            # A child that runs past its parent counts only inside it.
            span(4, 1, "serve.execute", 90, 130, 7),
        ]
        st = ledger.self_times(spans)
        self.assertEqual(st[1], 100 - 50 - 10)
        self.assertEqual(st[2], 30)
        self.assertEqual(st[4], 40)

    def test_span_without_children_is_all_self(self):
        st = ledger.self_times([span(1, 0, "api.knn_into", 5, 25)])
        self.assertEqual(st[1], 20)

    def test_layers_called_in_turn(self):
        # Facade passes of 10 ms, core passes of 8 ms, a computed 3 ms
        # kernel share: self times 2, 5, 3 ms add up to the facade.
        spans = []
        for i in range(3):
            spans.append(span(2 * i + 1, 0, "api.knn_into", 0, 10_000_000))
            spans.append(span(2 * i + 2, 0, "core.query_sq_batch", 0,
                              8_000_000 + i))
        path = {"name": "local", "e2e_untraced_s": 0.0095,
                "layers": [["api", "api.knn_into"],
                           ["core", "core.query_sq_batch"],
                           ["simd", 0.003]]}
        selfs, accounted, overhead = ledger.path_ledger(spans, path)
        self.assertAlmostEqual(selfs["api"], 0.002 - 1e-9)
        self.assertAlmostEqual(selfs["core"], 0.005 + 1e-9)
        self.assertAlmostEqual(selfs["simd"], 0.003)
        self.assertAlmostEqual(accounted, 0.010 / 0.0095)
        self.assertAlmostEqual(overhead, 0.010 / 0.0095 - 1.0)

    def test_serve_path_uses_median_request(self):
        spans = [
            span(1, 0, "serve.request", 0, 400, 0),
            span(2, 1, "serve.execute", 300, 400, 0),
            span(3, 0, "serve.request", 0, 200, 1),
            span(4, 3, "serve.execute", 100, 200, 1),
            span(5, 0, "serve.request", 0, 300, 2),
            span(6, 5, "serve.execute", 150, 250, 2),
        ]
        path = {"name": "serve", "e2e_untraced_s": 300e-9,
                "layers": [["serve", "serve.request"],
                           ["backend", "serve.execute"]]}
        selfs, accounted, _ = ledger.path_ledger(spans, path)
        self.assertAlmostEqual(selfs["serve"], 200e-9)
        self.assertAlmostEqual(selfs["backend"], 100e-9)
        self.assertAlmostEqual(accounted, 1.0)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def run_workload(self, workload, trace):
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "2", "--trace",
             str(trace), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        return json.loads(r.stdout.strip().splitlines()[-1])

    def test_every_metric_printed_with_name_and_unit(self):
        # dist-plasma3 is not gated (see README) but must keep working.
        workloads = [w["name"] for w in self.spec["workloads"]]
        for workload in workloads + ["dist-plasma3"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_workload(workload, trace)
                    self.assertEqual(sorted(result), ["attempted", "correct",
                                                      "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {k: v["unit"] for k, v in
                           result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), name)


if __name__ == "__main__":
    unittest.main()
