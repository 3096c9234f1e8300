"""Toy-size run of the benchmark's export workload.

The traced pass reads the return value of export.to_dot, to_json and
to_csv to count bytes and arcs; a renderer that bypasses those functions
would leave both counts at zero.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_export_workload_counts_bytes_and_arcs():
    argv = [sys.executable, "perfbench/run.py", "--workload", "export", "--scale", "toy",
            "--seed", "1", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["export.bytes_out"]["value"] > 0
    assert metrics["export.arcs_out"]["value"] > 0
