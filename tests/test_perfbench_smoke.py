"""Toy-size runs of the benchmark's workloads.

The traced export pass reads the return value of export.to_dot, to_json
and to_csv to count bytes and arcs; a renderer that bypasses those
functions would leave both counts at zero.  The untraced claims pass reads
the `milestone` output and the fields of paths.uniqueness_check's report.
The untraced series pass reads paths.psi_oracle, `conjecture --jobs` and
jaco.analysis.edge_count_direct, and the digits pass reads
sequences.bettina_dplus; no other tier-1 test runs those two workloads.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--scale", "toy",
            "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    assert result["failed"] == 0
    return result


def test_traced_export_workload_counts_bytes_and_arcs():
    metrics = _run("export", 1)["metrics"]
    assert metrics["export.bytes_out"]["value"] > 0
    assert metrics["export.arcs_out"]["value"] > 0


def test_untraced_claims_workload_is_correct():
    _run("claims", 0)


@pytest.mark.parametrize("workload", ["series", "digits"])
def test_untraced_workload_is_correct(workload):
    _run(workload, 0)
