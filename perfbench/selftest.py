"""Self-tests of the benchmark harness, kept out of the tier-1 suite.

    python3 perfbench/selftest.py

Covers the tail-percentile rule, fail_ratio counting, a tiny-grid smoke pass
of each workload, traced and untraced, that untraced runs install no span
wrappers, that removed hook points read as missing, and that the metric
names and units agree with BENCHMARK.json.  The smoke passes check that the harness runs and counts; on
tiny grids the pinned bounds need not hold, so checks may fail there.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from spans import METRIC_UNITS  # noqa: E402


class FakeOp:
    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


def _boom():
    raise ValueError("boom")


class TailPercentile(unittest.TestCase):
    def test_ten_samples_beyond(self):
        pct, value = run.tail_percentile([float(i) for i in range(100, 0, -1)])
        self.assertEqual(value, 90.0)
        self.assertAlmostEqual(pct, 90.0)
        pct, value = run.tail_percentile([float(i) for i in range(1, 201)])
        self.assertEqual((pct, value), (95.0, 190.0))

    def test_eleven_samples_is_the_minimum(self):
        pct, value = run.tail_percentile([float(i) for i in range(11)])
        self.assertEqual(value, 0.0)
        self.assertAlmostEqual(pct, 100.0 / 11.0)

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0]), (100.0, 3.0))


class FailCounting(unittest.TestCase):
    def test_run_pass_counts_raises_and_failed_checks(self):
        ops = [
            FakeOp("ok", lambda: 1, lambda res, done: []),
            FakeOp("raises", _boom, lambda res, done: []),
            FakeOp("bad", lambda: 2, lambda res, done: [f"saw {res}, ok gave {done['ok']}"]),
            FakeOp("check-raises", lambda: 3, lambda res, done: [][1]),
        ]
        samples, failures = [], []
        raw, nominal = worker.run_pass(ops, samples, failures, None, SpeedProbe())
        self.assertEqual([s[0] for s in samples], ["ok", "raises", "bad", "check-raises"])
        self.assertAlmostEqual(raw, sum(s[1] for s in samples))
        self.assertAlmostEqual(nominal, sum(s[2] for s in samples))
        self.assertEqual([f["op"] for f in failures], ["raises", "bad", "check-raises"])
        self.assertIn("ValueError: boom", failures[0]["causes"][0])
        self.assertEqual(failures[1]["causes"], ["saw 2, ok gave 1"])
        self.assertIn("check raised IndexError", failures[2]["causes"][0])

    def test_ok_ratio_and_counts(self):
        runner = run.Runner("pointwise-checks", 0, 1.0, False)
        child = {"role": "pass", "traced": False, "passes": [1.0], "setup_s": 0.5,
                 "samples": [["a", 0.5, 0.25], ["b", 1.5, 0.75]], "attempted": 5,
                 "peak_rss_mb": 10.0,
                 "failures": [{"op": "a", "causes": ["x"]}], "kernel_errors": {"k": 1e-9}}
        runner.children = [child, dict(child, failures=[])]
        attempted, failures = runner.counts()
        self.assertEqual((attempted, len(failures)), (10, 1))
        values, _ = runner.end_to_end()
        self.assertAlmostEqual(values["ok_ratio"], 0.9)
        self.assertAlmostEqual(values["ops_per_s"], 2.0)
        self.assertAlmostEqual(values["pass_s"], 1.0)
        self.assertAlmostEqual(values["latency_ms_p50"], 1000.0)
        self.assertEqual(values["latency_ms_tail"], 1000.0)


class BenchmarkFile(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, METRIC_UNITS)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


class MissingHooks(unittest.TestCase):
    def test_removed_hook_points_are_missing_not_zero(self):
        from spans import Tracer

        tracer = Tracer({})
        tracer.install()
        values, missing = tracer.metrics(1)
        self.assertIsNone(values["operators.build.count"])
        self.assertIn("operators.build.count", missing)
        self.assertIn("operators", tracer.missing_hooks)
        self.assertEqual(values["trace.pass_s"], 0.0)
        self.assertNotIn("trace.pass_s", missing)

    def test_one_removed_function_marks_its_group_missing(self):
        import types
        from spans import Tracer

        ops = types.ModuleType("operators_without_kernel_tensors")
        ops.apply_K = lambda *a: None
        tracer = Tracer({"operators": ops})
        tracer.install()
        self.assertIn("operators._kernel_tensors", tracer.missing_hooks)
        _, missing = tracer.metrics(1)
        self.assertIn("operators.hit_ratio", missing)
        self.assertIn("operators.apply.calls", missing)


def _worker(workload: str, traced: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", "1",
           "--role", "pass", "--tiny", "--trace", str(int(traced))]
    proc = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinySmoke(unittest.TestCase):
    def _check(self, out: dict):
        self.assertEqual(len(out["passes"]), 1)
        self.assertGreater(out["passes"][0], 0.0)
        self.assertAlmostEqual(out["raw_passes"][0], sum(s[1] for s in out["samples"]))
        self.assertGreater(out["setup_scale"], 0.0)
        self.assertEqual(out["attempted"], len(out["samples"]) + 1)
        self.assertLessEqual(len(out["failures"]), out["attempted"])
        self.assertGreater(out["peak_rss_mb"], 0.0)

    def test_each_workload_untraced_installs_no_wrappers(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                out = _worker(workload, traced=False)
                self._check(out)
                self.assertEqual(out["wrappers"], 0)
                self.assertNotIn("layers", out)

    def test_each_workload_traced_reports_every_layer_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                out = _worker(workload, traced=True)
                self._check(out)
                self.assertGreater(out["wrappers"], 0)
                self.assertEqual(out["missing_metrics"], [])
                expected = set(METRIC_UNITS) - {"trace.overhead_s"}
                self.assertEqual(set(out["layers"]), expected)


if __name__ == "__main__":
    unittest.main()
