"""Toy-size self-check of the benchmark.

Runs every workload at tiny sizes with tracing off and on, and checks the
result schema, the metric names and units against BENCHMARK.json, that
no operation failed, and that the traced layer self times add up to the
traced wall time.  Also checks that the benchmark refuses to run without
the program.  Takes about half a minute:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import math
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
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd: str, workload: str, trace: int, scale: str = "toy"):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", scale],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class SelfCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            cls.spec = json.load(handle)

    def test_spec_matches_code(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.NAMES))
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual(self.spec["per_layer"], tracing.per_layer_metrics())

    def test_every_workload_traced_and_untraced(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in self.spec[section]}
            for workload in workloads.NAMES:
                with self.subTest(workload=workload, trace=trace):
                    proc = _bench(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr[-2000:])
                    self.assertEqual(result["failed"], 0)  # fail_ratio == 0
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics), set(units))
                    for name, metric in metrics.items():
                        self.assertEqual(metric["unit"], units[name], name)
                        self.assertTrue(math.isfinite(metric["value"]), name)
                    if trace:
                        self._check_layer_sum(metrics)
                    else:
                        self.assertGreater(metrics["wall_s"]["value"], 0)

    def _check_layer_sum(self, metrics):
        layers = sum(metrics[f"{m}.self_s"]["value"] for m in tracing.LAYERS)
        total = layers + metrics["bench.self_s"]["value"]
        self.assertAlmostEqual(total, metrics["trace.wall_s"]["value"], delta=1e-9)
        for module, names in tracing.LAYERS.items():
            parts = sum(metrics[f"{module}.{fn}.self_s"]["value"] for fn in names
                        if f"{module}.{fn}" not in tracing.COUNT_ONLY)
            self.assertAlmostEqual(parts, metrics[f"{module}.self_s"]["value"], delta=1e-9)

    def test_refuses_without_program(self):
        os.makedirs(run.OUT, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = _bench(bare, "claims", 0, scale="full")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
