"""Span and memory tracing for the benchmark's traced passes.

The program is never edited.  Instead, after `import jaco`, every public
function named in LAYERS is replaced by a wrapper in every module of the
package that binds it (so `jaco.analysis.build`, `jaco.export.arcs`,
`jaco.paths.build` and `jaco.build` all route through the same span).
Private helpers such as `_claim_*` and `_psi_fast` stay unwrapped, so their
time lands in the public function that called them.

A span is (name, start, end, parent index); spans stay in memory and are
written out when the pass ends.  A span's self time is its duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import defaultdict

# The layers are the program's modules; each lists the public functions
# the traced pass wraps.  `check_order` (an O(1) argument guard called by
# nearly every function) is left unwrapped on purpose.
LAYERS: dict[str, tuple[str, ...]] = {
    "sequences": (
        "lucas_terms", "liz_terms", "c_series", "zeck_encode", "validate_digits",
        "zeck_decode", "tau", "c_closed", "bettina_dplus",
    ),
    "graph": (
        "build", "out_neighbors", "in_neighbors", "arcs", "degree_profile",
        "jaconian", "hope_is_complete",
    ),
    "analysis": (
        "edge_count_direct", "edge_count_theorem", "edge_count_recursive",
        "complete_prefix_count", "edge_count_report", "milestone_delta",
        "verify_suite", "render_report",
    ),
    "paths": (
        "distances", "psi_oracle", "path_table", "psi_recursive",
        "uniqueness_check", "distance_roots", "conjecture_scan", "render_conjecture",
    ),
    "export": ("to_dot", "to_json", "to_csv", "seq_dump", "render"),
    "oracles": (
        "c_series_bruteforce", "naive_build", "enumerate_zeck_reps",
        "bfs_distances", "enumerate_shortest_paths",
    ),
    "cli": ("main",),
}

# `graph.arcs` returns a generator: the time spent iterating it lands in its
# consumer, so only its calls are counted.
COUNT_ONLY = frozenset({"graph.arcs"})

COUNTS = (
    "export.bytes_out",
    "export.arcs_out",
    "sequences.c_series.terms",
    "analysis.claims_checked",
    "paths.conjecture_scan.rows",
    "sequences.queries",
)

MEMORY = ("graph.build.retained_mb", "export.render_peak_mb")

_RENDERERS = ("export.to_dot", "export.to_json", "export.to_csv", "export.seq_dump")
_MB = 1024 * 1024


def per_layer_metrics() -> list[dict]:
    """Every metric a traced run reports, in a fixed order."""
    out = []
    for module, names in LAYERS.items():
        for fn in names:
            qualified = f"{module}.{fn}"
            if qualified not in COUNT_ONLY:
                out.append({"name": f"{qualified}.self_s", "unit": "s", "better": "lower"})
            out.append({"name": f"{qualified}.calls", "unit": "count", "better": "lower"})
    for module in LAYERS:
        out.append({"name": f"{module}.self_s", "unit": "s", "better": "lower"})
    out.append({"name": "bench.self_s", "unit": "s", "better": "lower"})
    out.append({"name": "trace.wall_s", "unit": "s", "better": "lower"})
    out.append({"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"})
    for name in COUNTS:
        out.append({"name": name, "unit": "count", "better": "lower"})
    for name in MEMORY:
        out.append({"name": name, "unit": "MB", "better": "lower"})
    return out


def _package_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "jaco" or name.startswith("jaco.")]


def _rebind(original, replacement) -> None:
    """Replace `original` by `replacement` wherever a jaco module binds it."""
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _targets():
    """(qualified name, function) for every wrapped function the program has.

    A name the program no longer defines is skipped; it then reports zero.
    """
    for module, names in LAYERS.items():
        mod = sys.modules[f"jaco.{module}"]
        for fn in names:
            target = getattr(mod, fn, None)
            if callable(target):
                yield f"{module}.{fn}", target


class Tracer:
    """Records spans and counts for one traced pass."""

    def __init__(self, original_edge_count):
        self.spans: list = []  # (name, start, end, parent index)
        self.counts: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.active = False
        self._stack: list[int] = []
        self._edge_count = original_edge_count

    def install(self) -> None:
        hooks = self._hooks()
        for name, fn in list(_targets()):
            _rebind(fn, self._wrap(name, fn, hooks.get(name)))

    def _wrap(self, name, fn, hook):
        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                if self.active:
                    self.calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                # the hook's own time is recorded as benchmark time
                hook_start = clock()
                hook(args, result)
                spans.append(("bench", hook_start, clock(), parent))
            return result

        return traced

    def _hooks(self):
        counts = self.counts

        def add(metric, amount):
            counts[metric] += amount

        def rendered(args, text):
            add("export.bytes_out", len(text.encode()))

        def rendered_graph(args, text):
            rendered(args, text)
            add("export.arcs_out", self._edge_count(args[0]))

        return {
            "export.to_dot": rendered_graph,
            "export.to_json": rendered_graph,
            "export.to_csv": rendered_graph,
            "export.seq_dump": rendered,
            "sequences.c_series": lambda args, table: add("sequences.c_series.terms", len(table.c)),
            "analysis.verify_suite": lambda args, report: add("analysis.claims_checked", len(report.claims)),
            "paths.conjecture_scan": lambda args, report: add("paths.conjecture_scan.rows", len(report.rows)),
        }

    def layer_times(self, wall: float) -> dict[str, float]:
        """Self time and calls per function and per layer for a pass of `wall` s."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int, self.calls)
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] += end - start - covered[i]
            calls[name] += 1
        out: dict[str, float] = {}
        layered = 0.0
        for module, names in LAYERS.items():
            total = 0.0
            for fn in names:
                qualified = f"{module}.{fn}"
                if qualified not in COUNT_ONLY:
                    out[f"{qualified}.self_s"] = self_s[qualified]
                    total += self_s[qualified]
                out[f"{qualified}.calls"] = calls[qualified]
            out[f"{module}.self_s"] = total
            layered += total
        out["bench.self_s"] = wall - layered
        return out

    def write_spans(self, path: str, pass_id: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("pass\tindex\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{pass_id}\t{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


class MemoryProbe:
    """tracemalloc figures for `graph.build` and the renderers of `export`.

    Runs in its own pass, because tracemalloc slows every allocation.
    """

    def __init__(self):
        self.values = {name: 0.0 for name in MEMORY}
        self.active = False

    def install(self) -> None:
        for name, fn in list(_targets()):
            if name == "graph.build":
                _rebind(fn, self._wrap(fn, "graph.build.retained_mb", retained=True))
            elif name in _RENDERERS:
                _rebind(fn, self._wrap(fn, "export.render_peak_mb", retained=False))

    def _wrap(self, fn, metric, retained):
        def probed(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            before = tracemalloc.get_traced_memory()[0]
            if not retained:
                tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            current, peak = tracemalloc.get_traced_memory()
            used = (current if retained else peak) - before
            self.values[metric] = max(self.values[metric], used / _MB)
            return result

        return probed
