"""Benchmark of the jaco library and CLI: four seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload claims --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run repeats passes of the workload for --seconds seconds.  Each pass is
a fresh process (onepass.py) with one thread and a closed loop of
operations.  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes, ends with one
tracemalloc pass, and reports the per-layer metrics.  The last line of
standard output is one JSON object; a readable report and the
environment go to standard error and to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PASS_TIMEOUT_S = 150
EXIT_NO_PROGRAM = 3  # onepass.py could not import jaco

# Median time of onepass.gauge_kernel on the reference machine (2-CPU Xeon
# at 2.1 GHz, CPython 3.11.7).  Each pass times that kernel between its
# operations; every time the pass reports is multiplied by
# REFERENCE_GAUGE_S / (the pass's median gauge time), so that drift in the
# speed of a shared host cancels out.  See README.md, "Speed normalization".
REFERENCE_GAUGE_S = 0.0007

# The tail is the sample with ten samples beyond it, but never above p99:
# beyond p99 the digits samples are scheduler spikes of 1-7 ms, not the
# program.
TAIL_CAP = 0.99

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_us", "us"),
    ("query_tail_us", "us"),
)


class ProgramMissing(RuntimeError):
    """The checkout holds no importable jaco package."""


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "load_avg_start": os.getloadavg(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def run_child(workload: str, seed: int, k: int, mode: str, scale: str) -> dict:
    """Run one pass in a fresh process; its setup time starts at the spawn."""
    result = os.path.join(OUT, f"pass-{workload}-{mode}.json")
    spans = os.path.join(OUT, "spans", f"{workload}-seed{seed}-pass{k}.tsv")
    cmd = [
        sys.executable, os.path.join(HERE, "onepass.py"),
        "--workload", workload, "--seed", str(seed), "--pass-index", str(k),
        "--mode", mode, "--scale", scale, "--workdir", OUT, "--result", result,
    ]
    if mode == "traced":
        cmd += ["--spans", spans]
    if os.path.exists(result):
        os.remove(result)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass {k} ({mode}) exceeded {PASS_TIMEOUT_S} s"}
    if proc.returncode == EXIT_NO_PROGRAM:
        raise ProgramMissing(f"no importable jaco under {SRC}")
    if proc.returncode != 0 or not os.path.exists(result):
        return {"crashed": f"pass {k} ({mode}) exited with {proc.returncode}"}
    with open(result, encoding="utf-8") as handle:
        summary = json.load(handle)
    os.remove(result)
    summary["setup_s"] = summary["first_op"] - spawned
    normalize(summary)
    return summary


def normalize(summary: dict) -> None:
    """Scale every time of a pass to the reference gauge speed; keep the raw ones."""
    factor = REFERENCE_GAUGE_S / summary["gauge_s"]
    summary["speed_factor"] = factor
    summary["raw_wall_s"], summary["raw_setup_s"] = summary["wall_s"], summary["setup_s"]
    summary["wall_s"] *= factor
    summary["setup_s"] *= factor
    summary["latencies"] = [x * factor for x in summary["latencies"]]
    layers = summary.get("layers", {})
    for name in layers:
        if name.endswith(".self_s"):
            layers[name] *= factor


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest sample with ten samples beyond it.

    Capped at p99; with fewer than 20 samples it is the median's rank.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(min(n - 10, math.ceil(TAIL_CAP * n)), math.ceil(n / 2))
    return 100 * rank / n, ordered[rank - 1]


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    latencies = [x for p in passes for x in p["latencies"]]
    pct, tail_value = tail(latencies)
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "query_p50_us": statistics.median(latencies) * 1e6,
        "query_tail_us": tail_value * 1e6,
    }
    raw = {name: statistics.median(p[name] for p in passes)
           for name in ("raw_setup_s", "raw_wall_s", "speed_factor")}
    return values, {"query_samples": len(latencies), "query_tail_percentile": pct, "raw": raw}


def per_layer(plain: list[dict], traced: list[dict], memory: dict | None) -> dict:
    """Means over the traced passes, so the layer self times add up to trace.wall_s."""
    values = {}
    for name in traced[0]["layers"]:
        values[name] = statistics.fmean(p["layers"][name] for p in traced)
    for name in tracing.COUNTS:
        values[name] = statistics.fmean(p["counts"].get(name, 0) for p in traced)
    values["trace.wall_s"] = statistics.fmean(p["wall_s"] for p in traced)
    values["trace.overhead_ratio"] = (
        sum(p["wall_s"] for p in traced) / sum(p["wall_s"] for p in plain))
    for name in tracing.MEMORY:
        values[name] = memory["memory"][name] if memory else 0.0
    return values


def run(workload: str, seed: int, seconds: int, trace: bool, scale: str) -> dict:
    modes = ("plain", "traced") if trace else ("plain",)
    for stale in glob.glob(os.path.join(OUT, "spans", f"{workload}-seed{seed}-*.tsv")):
        os.remove(stale)
    env = environment(seed)
    passes: dict[str, list[dict]] = {mode: [] for mode in modes}
    crashed: list[str] = []
    deadline = time.monotonic() + seconds
    k = 0
    while True:
        for mode in modes:
            summary = run_child(workload, seed, k, mode, scale)
            if "crashed" in summary:
                crashed.append(summary["crashed"])
            else:
                passes[mode].append(summary)
        k += 1
        if time.monotonic() >= deadline:
            break
    memory = None
    if trace:
        memory = run_child(workload, seed, 0, "memory", scale)
        if "crashed" in memory:
            crashed.append(memory["crashed"])
            memory = None
    done = [p for mode in modes for p in passes[mode]] + ([memory] if memory else [])
    attempted = sum(p["attempted"] for p in done) + len(crashed)
    failed = sum(p["failed"] for p in done) + len(crashed)
    failures = [f for p in done for f in p["failures"]][:10] + crashed

    metrics: dict = {}
    info: dict = {"passes": {mode: len(passes[mode]) for mode in modes}}
    if trace and passes["traced"] and passes["plain"]:
        units = {m["name"]: m["unit"] for m in tracing.per_layer_metrics()}
        values = per_layer(passes["plain"], passes["traced"], memory)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    elif not trace and passes["plain"]:
        values, extra = end_to_end(passes["plain"])
        info.update(extra)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    record = {"workload": workload, "trace": trace, "scale": scale, "seconds": seconds,
              "environment": env, "info": info, "failures": failures, "result": result}
    path = os.path.join(OUT, f"result-{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    report(record)
    return result


def report(record: dict) -> None:
    """Readable summary on standard error."""
    result, info, env = record["result"], record["info"], record["environment"]
    print(f"perfbench {record['workload']} trace={int(record['trace'])} seed={env['seed']} "
          f"passes={info['passes']} cpus={env['cpu_count']} python={env['python']} "
          f"load={env['load_avg_start']} commit={env['git_commit']}", file=sys.stderr)
    for failure in record["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)
    ratio = result["failed"] / result["attempted"]
    print(f"  fail_ratio = {ratio:.6g} ({result['failed']}/{result['attempted']})", file=sys.stderr)
    if "query_samples" in info:
        print(f"  query samples = {info['query_samples']}, tail = "
              f"p{info['query_tail_percentile']:.4g}", file=sys.stderr)
        raw = info["raw"]
        print(f"  before speed normalization: setup_s = {raw['raw_setup_s']:.6g} s, "
              f"wall_s = {raw['raw_wall_s']:.6g} s (median factor "
              f"{raw['speed_factor']:.4g})", file=sys.stderr)
    metrics = result["metrics"]
    if record["trace"]:
        names = [f"{module}.self_s" for module in tracing.LAYERS]
        names += ["bench.self_s", "trace.wall_s", "trace.overhead_ratio", *tracing.MEMORY]
        metrics = {name: metrics[name] for name in names if name in metrics}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: tiny sizes, for the self-check")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SRC, "jaco", "__init__.py")):
        print(f"perfbench: no jaco package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    # compile once, so no pass pays for writing bytecode
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run(name, args.seed, args.seconds, bool(args.trace), args.scale)
            print(json.dumps(result), flush=True)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
