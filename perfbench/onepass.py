"""One pass of one workload, in a fresh process.

`run.py` starts this script once per pass and waits for it; it is not
meant to be run by hand.  The pass imports `jaco` from the checkout's
`src/`, builds its seeded inputs, runs the operations in a closed loop
(each starts when the previous returned) on one thread, checks every
output outside the timed region, and writes a JSON summary to --result.
Between operations it times a fixed gauge kernel, so that run.py can
scale the pass's times to a reference machine speed.

Modes: `plain` runs the program untouched; `traced` wraps the public
functions of every layer in spans (see tracing.py); `memory` runs under
tracemalloc to read what `graph.build` retains and what the renderers
peak at.  Exit status 3 means the program could not be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
EXIT_NO_PROGRAM = 3
GAUGE_EVERY_S = 0.05  # the longest stretch of operations between two gauges


def _import_program():
    sys.path.insert(0, SRC)
    try:
        import jaco
        import jaco.cli
    except ImportError as exc:
        print(f"perfbench: cannot import jaco from {SRC}: {exc}", file=sys.stderr)
        return None
    if not os.path.abspath(jaco.__file__).startswith(SRC + os.sep):
        print(f"perfbench: jaco imported from {jaco.__file__}, not {SRC}", file=sys.stderr)
        return None
    return jaco


class _Untraced:
    active = False


def gauge_kernel() -> None:
    """Fixed interpreter work, a c-series style scan of about 0.7 ms.

    Its time, taken between operations, tracks the speed of the machine
    while the pass runs; run.py scales the pass's times by it.
    """
    c = [0, 1]
    k = 1
    for n in range(2, 6000):
        while k + c[k] < n:
            k += 1
        c.append(k)


def run_pass(workload, recorder) -> dict:
    """Time each operation, then check it; return the pass summary.

    The recorder (tracer or memory probe) is active only while an operation
    runs, so checks and gauges leave no spans.
    """
    latencies: list[float] = []
    failures: list[str] = []
    pending = []
    clock = time.perf_counter

    def check(op, value):
        try:
            message = op.check(value)
        except Exception as exc:  # a broken output must not stop the pass
            message = f"check raised {exc!r}"
        if message is not None:
            failures.append(f"{op.kind}: {message}")

    gauges: list[float] = []
    last_gauge = -GAUGE_EVERY_S

    def gauge():
        for _ in range(3):
            start = clock()
            gauge_kernel()
            gauges.append(clock() - start)

    first_op = time.monotonic()
    for op in workload.ops:
        if clock() - last_gauge >= GAUGE_EVERY_S:
            gauge()
            last_gauge = clock()
        recorder.active = True
        start = clock()
        try:
            value = op.run()
        except (Exception, SystemExit) as exc:
            latencies.append(clock() - start)
            recorder.active = False
            failures.append(f"{op.kind}: raised {exc!r}")
            continue
        latencies.append(clock() - start)
        recorder.active = False
        if workload.defer_checks:
            pending.append((op, value))
        else:
            check(op, value)
    gauge()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for op, value in pending:
        check(op, value)
    return {
        "first_op": first_op,
        "wall_s": sum(latencies),
        "latencies": latencies,
        "attempted": len(workload.ops),
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": peak_rss_mb,
        "gauge_s": statistics.median(gauges),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark pass (started by run.py)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "memory"), required=True)
    parser.add_argument("--scale", choices=("full", "toy"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    jaco = _import_program()
    if jaco is None:
        return EXIT_NO_PROGRAM
    import tracing
    import workloads

    if args.mode == "traced":
        recorder = tracing.Tracer(jaco.analysis.edge_count_direct)
    elif args.mode == "memory":
        recorder = tracing.MemoryProbe()
    else:
        recorder = _Untraced()
    if args.mode != "plain":
        recorder.install()

    tmpdir = tempfile.mkdtemp(prefix="pass-", dir=args.workdir)
    try:
        ctx = workloads.Context(jaco, tmpdir)
        make = workloads.BY_NAME[args.workload]
        workload = make(ctx, args.seed, args.pass_index, workloads.SIZES[args.scale][args.workload])
        if args.mode == "memory":
            tracemalloc.start()
        summary = run_pass(workload, recorder)
        if args.mode == "memory":
            tracemalloc.stop()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    if args.mode == "traced":
        summary["layers"] = recorder.layer_times(summary["wall_s"])
        summary["counts"] = dict(recorder.counts, **{"sequences.queries": workload.queries})
        if args.spans:
            recorder.write_spans(args.spans, f"{args.workload}/{args.seed}/{args.pass_index}")
    elif args.mode == "memory":
        summary["memory"] = recorder.values
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
