"""The four seeded workloads: inputs of one pass, its operations, and the
checks of their outputs.

An operation is one call into the program (a public API function or
`jaco.cli.main(argv)` in-process).  Its check runs outside the timed
region, with tracing paused; a check returns None when the output is
right and a message otherwise.  Checks of `defer_checks` workloads run
after the pass's peak memory has been read, so that parsing written files
cannot raise it.

The seed only picks inputs within fixed bands.  Each input of an operation
is drawn from its band by a golden-ratio sequence whose offset comes from
the seed, so the passes of one run cover the band evenly and two seeds see
the same spread of sizes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

NAMES = ("claims", "series", "export", "digits")

# Bands per scale.  "full" is a 1/3 to 1/10 rescale of the sizes the
# workloads were first sized on (see README.md), so that a pass takes
# about a second and a run holds enough passes for steady medians.
SIZES = {
    "full": {
        "claims": {"verify_n": (280, 300), "milestone_a": (28, 30), "unique_m": (2800, 3000)},
        "series": {"n": (45_000, 50_000), "conjecture_n": (18_000, 20_000),
                   "horizon": (45_000, 50_000), "psi_prefix": 2000},
        "export": {"n": (480, 520)},
        "digits": {"queries": 8000, "digits": (1, 100)},
    },
    "toy": {
        "claims": {"verify_n": (20, 24), "milestone_a": (3, 5), "unique_m": (60, 80)},
        "series": {"n": (300, 400), "conjecture_n": (100, 120),
                   "horizon": (300, 400), "psi_prefix": 50},
        "export": {"n": (20, 30)},
        "digits": {"queries": 200, "digits": (1, 30)},
    },
}

GOLDEN = (5 ** 0.5 - 1) / 2
CLAIMS_AT_SEED = 30  # claims in the verify registry when this benchmark was written


def draw(seed: int, pass_index: int, key: str, band: tuple[int, int]) -> int:
    """Integer in `band` for this pass; evenly spread over the passes of a run."""
    lo, hi = band
    offset = random.Random(f"{seed}:{key}").random()
    return lo + int((offset + pass_index * GOLDEN) % 1.0 * (hi - lo + 1))


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    ops: list[Op]
    defer_checks: bool = False
    queries: int = 0  # point queries into `sequences` (digits only)


class Context:
    """What operations need: the program and a temporary directory for --out."""

    def __init__(self, jaco, tmpdir: str):
        self.jaco = jaco
        self.tmpdir = tmpdir

    def out(self, name: str) -> str:
        return os.path.join(self.tmpdir, name)

    def cli(self, *argv) -> int:
        return self.jaco.cli.main([str(x) for x in argv])


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


def _count_lines_and_last(path: str) -> tuple[int, str]:
    count, last = 0, ""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            count += 1
            last = line
    return count, last.rstrip("\n")


def _exit_ok(code) -> str | None:
    return None if code == 0 else f"exit code {code}, expected 0"


def beatty(n: int) -> int:
    """floor((n + 1) / phi) exactly (OEIS A005206), via math.isqrt."""
    m = n + 1
    return (math.isqrt(5 * m * m) - m) // 2


# ---------------------------------------------------------------- claims

def claims(ctx: Context, seed: int, k: int, sizes: dict) -> Workload:
    jaco = ctx.jaco
    n = draw(seed, k, "verify_n", sizes["verify_n"])
    a = draw(seed, k, "milestone_a", sizes["milestone_a"])
    m = draw(seed, k, "unique_m", sizes["unique_m"])
    verify_out, milestone_out = ctx.out("verify.txt"), ctx.out("milestone.txt")

    def check_verify(code):
        lines = _read_lines(verify_out)
        claim_lines = [line for line in lines if line.startswith("CLAIM ")]
        if len(claim_lines) < CLAIMS_AT_SEED:
            return f"{len(claim_lines)} CLAIM lines, expected at least {CLAIMS_AT_SEED}"
        failing = [line for line in claim_lines if line.split()[2] != "PASS"]
        if failing:
            return f"claim failed: {failing[0]}"
        if lines[-1] != "OVERALL PASS" or len(lines) != len(claim_lines) + 1:
            return f"report does not end in one OVERALL PASS line: {lines[-1]!r}"
        return _exit_ok(code)

    def check_milestone(code):
        want = f"n_star={a * (a + 1) + 1}"
        got = _read_lines(milestone_out)
        return _exit_ok(code) or (None if got == [want] else f"milestone {got}, expected {want}")

    def check_unique(report):
        if report.mismatches:
            return f"uniqueness mismatches at {report.mismatches[:5]}"
        return None if len(report.unique) == m + 1 else f"report covers {len(report.unique) - 1} vertices, expected {m}"

    return Workload([
        Op("cli.verify", lambda: ctx.cli("verify", "--a-min", 1, "--a-max", 3, "--n", n,
                                         "--jobs", 1, "--out", verify_out), check_verify),
        Op("cli.milestone", lambda: ctx.cli("milestone", "--a", a, "--out", milestone_out),
           check_milestone),
        Op("api.uniqueness_check", lambda: jaco.paths.uniqueness_check(jaco.graph.build(1, m)),
           check_unique),
    ], defer_checks=True)


# ---------------------------------------------------------------- series

def series(ctx: Context, seed: int, k: int, sizes: dict) -> Workload:
    ops: list[Op] = []
    for a in (1, 2, 3):
        ops.extend(_series_order(ctx, a, draw(seed, k, f"n.{a}", sizes["n"]), sizes["psi_prefix"]))

    k_max = draw(seed, k, "conjecture_n", sizes["conjecture_n"])
    horizon = draw(seed, k, "horizon", sizes["horizon"])
    conj_out, seq_out = ctx.out("conjecture.txt"), ctx.out("seq.tsv")

    def check_conjecture(code):
        count, last = _count_lines_and_last(conj_out)
        want = f"SUMMARY scanned=7..{k_max - 1} violations=0"
        if last != want:
            return f"last line {last!r}, expected {want!r}"
        if count != k_max - 7 + 1:
            return f"{count} lines, expected {k_max - 6}"
        return _exit_ok(code)

    def check_seq(code):
        count, _ = _count_lines_and_last(seq_out)
        return _exit_ok(code) or (None if count == horizon + 2 else f"{count} lines, expected {horizon + 2}")

    ops.append(Op("cli.conjecture", lambda: ctx.cli("conjecture", "--n", k_max, "--jobs", 1,
                                                    "--out", conj_out), check_conjecture))
    ops.append(Op("cli.seq", lambda: ctx.cli("seq", "--a", 2, "--horizon", horizon,
                                             "--out", seq_out), check_seq))
    return Workload(ops)


def _series_order(ctx: Context, a: int, n: int, prefix: int) -> list[Op]:
    """The bulk operations on J_n(a); later ones use the graph the first built."""
    jaco = ctx.jaco
    got: dict = {}

    def keep(key, check):
        def wrapped(value):
            got[key] = value
            return check(value)
        return wrapped

    def check_build(g):
        c = g.seq.c
        if g.n != n or len(c) != n + 1:
            return f"graph has {len(c) - 1} vertices, expected {n}"
        if a == 1:
            bad = next((i for i in range(1, n + 1) if c[i] != beatty(i)), None)
            if bad is not None:
                return f"c[{bad}] = {c[bad]}, Beatty value {beatty(bad)}"
        return None

    def check_profile(p):
        bad = next((i for i in range(1, n + 1) if p.d_total[i] != p.d_in[i] + p.d_out_finite[i]), None)
        return None if bad is None else f"d_total != d_in + d_out at {bad}"

    def check_jaconian(info):
        c = got["g"].seq.c
        if info.prime_index not in (c[n], c[n] - 1):
            return f"prime {info.prime_index} not in {{c[n], c[n]-1}} = {{{c[n]}, {c[n] - 1}}}"
        delta = max(got["profile"].d_total[1:])
        return None if info.delta == delta else f"delta {info.delta}, max degree {delta}"

    def check_hope(result):
        return None if result == (True, None) else f"Hope range not complete: {result}"

    def check_edges(count):
        want = sum(got["profile"].d_out_finite)
        return None if count == want else f"{count} arcs, out-degrees sum to {want}"

    def check_paths(table):
        small = jaco.graph.build(a, min(prefix, n))
        psi = jaco.paths.psi_oracle(small)
        dist = jaco.paths.distances(small)
        size = len(psi)
        if table.psi[:size] != psi or table.dist[:size] != dist:
            return f"path_table differs from psi_oracle below {size}"
        return None

    def check_distances(dist):
        same = dist == got["paths"].dist
        got.clear()  # the pass drops this order's results before the next
        return None if same else "distances differ from path_table"

    paths, graph = jaco.paths, jaco.graph
    return [
        Op("api.build", lambda: graph.build(a, n), keep("g", check_build)),
        Op("api.degree_profile", lambda: graph.degree_profile(got["g"]), keep("profile", check_profile)),
        Op("api.jaconian", lambda: graph.jaconian(got["g"]), check_jaconian),
        Op("api.hope_is_complete", lambda: graph.hope_is_complete(got["g"]), check_hope),
        Op("api.edge_count_direct", lambda: jaco.analysis.edge_count_direct(got["g"]), check_edges),
        Op("api.path_table", lambda: paths.path_table(got["g"]), keep("paths", check_paths)),
        Op("api.distances", lambda: paths.distances(got["g"]), check_distances),
    ]


# ---------------------------------------------------------------- export

def export(ctx: Context, seed: int, k: int, sizes: dict) -> Workload:
    ops = [_export_op(ctx, a, draw(seed, k, f"n.{a}.{fmt}", sizes["n"]), fmt)
           for a in (1, 2, 3) for fmt in ("dot", "json", "csv")]
    return Workload(ops, defer_checks=True)


def _export_op(ctx: Context, a: int, n: int, fmt: str) -> Op:
    path = ctx.out(f"graph_a{a}.{fmt}")

    def run():
        return ctx.cli("build", "--a", a, "--n", n, "--format", fmt, "--out", path)

    def check(code):
        return _exit_ok(code) or _check_export(ctx, a, n, fmt, path)

    return Op(f"cli.build.{fmt}", run, check)


def _parse_arcs(fmt: str, text: str, a: int, n: int) -> list[int]:
    """Arcs of a written DOT, JSON or CSV file as a flat [tail, head, ...] list.

    Raises ValueError (or KeyError, TypeError) if the file is malformed.
    """
    if fmt == "json":
        payload = json.loads(text)
        if (payload["a"], payload["n"], len(payload["total_degree"])) != (a, n, n):
            raise ValueError("JSON header or degree arrays do not match the graph")
        edges = payload["edges"]
        if any(len(pair) != 2 for pair in edges):
            raise ValueError("an edge is not a [tail, head] pair")
        return list(itertools.chain.from_iterable(edges))
    if fmt == "csv":
        header = "tail,head\n"
        if not text.startswith(header):
            raise ValueError(f"CSV header {text[:20]!r}")
        body = text[len(header):]
        rows = body.count("\n")
        if body.count(",") != rows or (body and not body.endswith("\n")):
            raise ValueError("CSV rows are not tail,head lines")
        fields = body.replace(",", " ").split()
    else:
        header, footer = f"digraph jaco_a{a}_n{n} {{\n", "}\n"
        if not (text.startswith(header) and text.endswith(footer)):
            raise ValueError("DOT header or footer")
        body = text[len(header):-len(footer)]
        if body == "  v1;\n":
            return []
        rows = body.count("\n")
        if body.count(" -> v") != rows or body.count(";\n") != rows:
            raise ValueError("DOT body is not one '  vI -> vJ;' line per arc")
        fields = body.replace("  v", " ").replace(" -> v", " ").replace(";\n", " ").split()
    if len(fields) != 2 * rows:
        raise ValueError("not two vertex indices per arc")
    return list(map(int, fields))


def _check_export(ctx: Context, a: int, n: int, fmt: str, path: str) -> str | None:
    jaco = ctx.jaco
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    os.remove(path)
    try:
        flat = _parse_arcs(fmt, text, a, n)
    except (ValueError, KeyError, TypeError) as exc:
        return f"{fmt} output does not parse: {exc}"
    g = jaco.graph.build(a, n)
    count = jaco.analysis.edge_count_direct(g)
    reach = g.seq.reach
    want = [x for i in range(1, n + 1) for j in range(i + 1, min(reach[i], n) + 1) for x in (i, j)]
    if len(flat) != 2 * count or flat != want:
        return f"{fmt} file has {len(flat) // 2} arcs, expected the {count} arcs of J_{n}({a})"
    return None


# ---------------------------------------------------------------- digits

def digits(ctx: Context, seed: int, k: int, sizes: dict) -> Workload:
    """Point queries: a in 1..5, n with a seeded number of decimal digits."""
    seq = ctx.jaco.sequences
    rng = random.Random(f"{seed}:digits:{k}")
    lo_digits, hi_digits = sizes["digits"]
    ops = []
    for _ in range(sizes["queries"]):
        a = rng.randint(1, 5)
        d = rng.randint(lo_digits, hi_digits)
        n = rng.randint(10 ** (d - 1), 10 ** d - 1)
        ops.append(Op("api.digit_query", _digit_query(seq, a, n), _digit_check(ctx, a, n)))
    return Workload(ops, queries=len(ops))


def _digit_query(seq, a: int, n: int):
    def run():
        rep = seq.zeck_encode(a, n)
        back = seq.zeck_decode(a, rep)
        t = seq.tau(rep)
        c = seq.c_closed(a, n)
        d = seq.bettina_dplus(n) if a == 1 else None
        return back, t, c, d
    return run


def _digit_check(ctx: Context, a: int, n: int):
    def check(result):
        back, t, c, d = result
        if back != n:
            return f"round trip of {n} at a={a} gave {back}"
        if t not in (0, 1):
            return f"tau {t} at a={a}, n={n}"
        if a == 1:
            want = beatty(n)
            if c != want or d != want:
                return f"a=1 n={n}: c={c} dplus={d}, Beatty value {want}"
            return None
        c_k = ctx.jaco.sequences.c_closed(a, c)
        c_prev = ctx.jaco.sequences.c_closed(a, c - 1) if c > 1 else 0
        if not a * c + c_k >= n > a * (c - 1) + c_prev:
            return f"c({n}) = {c} at a={a} is not the least k with a*k + c(k) >= n"
        return None
    return check


BY_NAME = {"claims": claims, "series": series, "export": export, "digits": digits}
