"""Edge counts by three independent routes, the maximum-degree milestone
search, and the verification harness.

The harness turns every structural claim the library relies on into a
deterministic pass/fail check over a parameter grid, reporting the first
counterexample of any failing claim.  One deliberate correction: the
source material asserts that the prime Jaconian vertex is always the
lowest in-neighbor c[n] of the last vertex, which is false at degree ties
(J_4(1) has Jaconian set {v_2, v_3} but c[4] = 3).  What does hold, and
what the harness checks, is that v_{c[n]} always attains the maximum
degree and that the subgraph above the prime vertex is complete.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

from . import graph as graph_mod
from . import oracles
from . import paths as paths_mod
from . import sequences
from .graph import (
    JacoGraph,
    JaconianInfo,
    arcs,
    build,
    degree_profile,
    hope_is_complete,
    in_neighbors,
    jaconian,
    out_neighbors,
)
from .sequences import check_order


class TheoremViolationError(RuntimeError):
    """A search exhausted its bound without finding a guaranteed witness."""


@dataclass(frozen=True)
class EdgeCountReport:
    """Edge totals of one J_n(a) by the three routes, asserted equal."""

    a: int
    n: int
    direct: int
    theorem: int
    recursive: int


@dataclass(frozen=True)
class MilestoneResult:
    """Smallest n with maximum degree a(a+1) attained by v_{a+1} alone."""

    a: int
    n_star: int


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    checked: str
    passed: bool
    counterexample: str | None


@dataclass(frozen=True)
class VerificationReport:
    claims: tuple[ClaimResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)


def _out_arcs(g: JacoGraph, k: int) -> int:
    """Arcs leaving v_1..v_k: the sum of min(a*i + c[i], n) - i over i <= k."""
    a, n, c = g.a, g.n, g.seq.c
    reach = map(operator.add, range(a, a * k + 1, a), c[1 : k + 1])
    return sum(map(min, reach, repeat(n))) - k * (k + 1) // 2


def edge_count_direct(g: JacoGraph) -> int:
    """Ground truth: sum of finite out-degrees."""
    return _out_arcs(g, g.n)


def edge_count_theorem(g: JacoGraph, info: JaconianInfo | None = None) -> int:
    """Edge total via the Hope decomposition.

    Arcs with tail above the prime index k live in the complete subgraph
    on the n - k Hope vertices; everything else is counted by the finite
    out-degrees of v_1..v_k.  A caller that already holds jaconian(g)
    passes it as info.
    """
    k = (jaconian(g) if info is None else info).prime_index
    hope_size = g.n - k
    return hope_size * (hope_size - 1) // 2 + _out_arcs(g, k)


def edge_count_recursive(a: int, n_max: int) -> list[int]:
    """Edge totals of J_1(a)..J_{n_max}(a) by the prime-vertex recurrence.

    Growing J_n to J_{n+1} adds n - i arcs when the prime vertex v_i is
    already saturated (degree a*i) and n - i + 1 arcs otherwise.
    Returned list is 0-indexed: result[n - 1] is the total for J_n(a).
    """
    check_order(a)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    seq = sequences.c_series(a, n_max)
    eps = [0]
    for n, info in enumerate(graph_mod.prefix_jaconians(seq, n_max - 1), 1):
        i = info.prime_index
        if info.delta == a * i:
            eps.append(eps[-1] - i + n)
        else:
            eps.append(eps[-1] - i + (n + 1))
    return eps


def complete_prefix_count(a: int, m: int) -> int:
    """Edge total m(m-1)/2 of the complete prefix, valid for m <= a + 1."""
    check_order(a)
    if not 1 <= m <= a + 1:
        raise ValueError(f"complete-prefix formula requires 1 <= m <= a+1, got m={m}")
    return m * (m - 1) // 2


def edge_count_report(g: JacoGraph) -> EdgeCountReport:
    """All three routes for one graph; raises if they disagree."""
    direct = edge_count_direct(g)
    theorem = edge_count_theorem(g)
    recursive = edge_count_recursive(g.a, g.n)[g.n - 1]
    if not direct == theorem == recursive:
        raise TheoremViolationError(
            f"edge counts disagree for a={g.a}, n={g.n}: "
            f"direct={direct} theorem={theorem} recursive={recursive}"
        )
    return EdgeCountReport(g.a, g.n, direct, theorem, recursive)


def milestone_delta(a: int) -> MilestoneResult:
    """Smallest n where the maximum degree reaches a(a+1) and is attained
    by v_{a+1} alone.  The search is bounded at twice the predicted value
    a(a+1) + 1 and failing to find it within the bound is an error."""
    check_order(a)
    target_delta = a * (a + 1)
    bound = 2 * (target_delta + 1)
    seq = sequences.c_series(a, bound)
    for n, info in enumerate(graph_mod.prefix_jaconians(seq, bound), 1):
        if info.delta == target_delta and info.jaconian_set == (a + 1,):
            return MilestoneResult(a, n)
    raise TheoremViolationError(
        f"no n <= {bound} has maximum degree {target_delta} attained by "
        f"v_{a + 1} alone; the milestone prediction is violated for a={a}"
    )


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------

# caps keeping the quadratic oracles affordable inside one suite run
_BRUTE_C_CAP = 1500
_NAIVE_BUILD_CAP = 300
_ZECK_ENUM_CAP = 2000
_PATH_ENUM_CAP = 25
_MILESTONE_A_CAP = 20

ClaimFn = Callable[[int, int, int], tuple[str, str | None]]


def _grid(a_min: int, a_max: int):
    return range(a_min, a_max + 1)


def _claim_seed_values(a_min, a_max, n):
    for a in _grid(a_min, a_max):
        seq = sequences.c_series(a, n)
        if seq.c[0] != 0 or seq.c[1] != 1:
            return f"a[{a_min}..{a_max}]", f"a={a} c[0]={seq.c[0]} c[1]={seq.c[1]}"
    return f"a[{a_min}..{a_max}]", None


def _claim_degree_identity(a_min, a_max, n):
    for a in _grid(a_min, a_max):
        seq = sequences.c_series(a, n)
        for m in range(1, n + 1):
            if seq.dplus[m] + seq.dminus[m] != a * m:
                return f"a[{a_min}..{a_max}] n[1..{n}]", f"a={a} n={m}"
    return f"a[{a_min}..{a_max}] n[1..{n}]", None


def _claim_monotone_step(a_min, a_max, n):
    for a in _grid(a_min, a_max):
        seq = sequences.c_series(a, n)
        for m in range(n):
            if seq.c[m + 1] - seq.c[m] not in (0, 1):
                return f"a[{a_min}..{a_max}] n[0..{n}]", f"a={a} n={m}"
    return f"a[{a_min}..{a_max}] n[0..{n}]", None


def _claim_bruteforce_c(a_min, a_max, n):
    cap = min(n, _BRUTE_C_CAP)
    for a in _grid(a_min, a_max):
        fast = sequences.c_series(a, cap).c
        slow = oracles.c_series_bruteforce(a, cap)
        if list(fast) != slow:
            m = next(i for i in range(cap + 1) if fast[i] != slow[i])
            return f"a[{a_min}..{a_max}] n[0..{cap}]", f"a={a} n={m}"
    return f"a[{a_min}..{a_max}] n[0..{cap}]", None


def _claim_closed_form(a_min, a_max, n):
    for a in _grid(a_min, a_max):
        seq = sequences.c_series(a, n)
        for m in range(1, n + 1):
            if sequences.c_closed(a, m) != seq.c[m]:
                return f"a[{a_min}..{a_max}] n[1..{n}]", f"a={a} n={m}"
    return f"a[{a_min}..{a_max}] n[1..{n}]", None


def _claim_fixpoint(a_min, a_max, n):
    for a in _grid(a_min, a_max):
        seq = sequences.c_series(a, n)
        for k in range(1, n + 1):
            for b in range(a):
                target = a * k + seq.c[k] - b
                if 0 <= target <= n and seq.c[target] != k:
                    return (
                        f"a[{a_min}..{a_max}] k,b within n<={n}",
                        f"a={a} k={k} b={b}",
                    )
    return f"a[{a_min}..{a_max}] k,b within n<={n}", None


def _claim_zeck_roundtrip(a_min, a_max, n):
    for a in _grid(a_min, a_max):
        for m in range(n + 1):
            rep = sequences.zeck_encode(a, m)
            try:
                value = sequences.zeck_decode(a, rep)
            except sequences.ZeckDigitError as exc:
                return f"a[{a_min}..{a_max}] n[0..{n}]", f"a={a} n={m} ({exc})"
            if value != m:
                return f"a[{a_min}..{a_max}] n[0..{n}]", f"a={a} n={m} decoded={value}"
    return f"a[{a_min}..{a_max}] n[0..{n}]", None


def _claim_zeck_uniqueness(a_min, a_max, n):
    cap = min(n, _ZECK_ENUM_CAP)
    for a in _grid(a_min, a_max):
        reps = oracles.enumerate_zeck_reps(a, cap)
        for value in range(1, cap + 1):
            found = reps.get(value, [])
            if len(found) != 1:
                return f"a[{a_min}..{a_max}] n[1..{cap}]", f"a={a} n={value} reps={len(found)}"
            if found[0] != sequences.zeck_encode(a, value).digits:
                return f"a[{a_min}..{a_max}] n[1..{cap}]", f"a={a} n={value} greedy differs"
    return f"a[{a_min}..{a_max}] n[1..{cap}]", None


def _claim_bettina(a_min, a_max, n):
    if not a_min <= 1 <= a_max:
        return "a=1 (skipped: outside grid)", None
    seq = sequences.c_series(1, n)
    for m in range(1, n + 1):
        if sequences.bettina_dplus(m) != seq.dplus[m]:
            return f"a=1 n[1..{n}]", f"n={m}"
    return f"a=1 n[1..{n}]", None


def _claim_outdegree_fixpoints(a_min, a_max, n):
    # order-1 identities D(i + D(i)) = i and D(i + D(i-1)) = i
    if not a_min <= 1 <= a_max:
        return "a=1 (skipped: outside grid)", None
    seq = sequences.c_series(1, n)
    d = seq.dplus
    for i in range(2, n + 1):
        k = i + d[i]
        if k <= n and d[k] != i:
            return f"a=1 i[2..{n}]", f"i={i} D(i+D(i))={d[k]}"
        k2 = i + d[i - 1]
        if k2 <= n and d[k2] != i:
            return f"a=1 i[2..{n}]", f"i={i} D(i+D(i-1))={d[k2]}"
    return f"a=1 i[2..{n}]", None


def _claim_binet(a_min, a_max, n):
    # powering amplifies the rounding error of r by a factor ~n, so the
    # exact-after-rounding region is bounded by U_n * n, not by U_n alone
    for a in _grid(a_min, a_max):
        r = a / 2 + (a * a / 4 + 1) ** 0.5
        s = a / 2 - (a * a / 4 + 1) ** 0.5
        m = 2
        terms = sequences.lucas_terms(a, 90).terms
        while m < len(terms) and terms[m] * m < 2**50:
            expected = round((r**m - s**m) / (r - s))
            if terms[m] != expected:
                return f"a[{a_min}..{a_max}] U_n*n < 2^50", f"a={a} n={m}"
            m += 1
    return f"a[{a_min}..{a_max}] U_n*n < 2^50", None


def _claim_arc_relation(a_min, a_max, n):
    cap = min(n, _NAIVE_BUILD_CAP)
    for a in _grid(a_min, a_max):
        naive_arcs, _ = oracles.naive_build(a, cap)
        g = build(a, cap)
        if set(arcs(g)) != naive_arcs:
            diff = sorted(set(arcs(g)) ^ naive_arcs)[0]
            return f"a[{a_min}..{a_max}] n={cap}", f"a={a} arc={diff}"
    return f"a[{a_min}..{a_max}] n={cap}", None


def _claim_contiguity(a_min, a_max, n):
    cap = min(n, _NAIVE_BUILD_CAP)
    for a in _grid(a_min, a_max):
        naive_arcs, _ = oracles.naive_build(a, cap)
        ins: dict[int, list[int]] = {j: [] for j in range(1, cap + 1)}
        outs: dict[int, list[int]] = {i: [] for i in range(1, cap + 1)}
        for i, j in naive_arcs:
            ins[j].append(i)
            outs[i].append(j)
        for v in range(1, cap + 1):
            for nbrs in (sorted(ins[v]), sorted(outs[v])):
                if nbrs and nbrs != list(range(nbrs[0], nbrs[-1] + 1)):
                    return f"a[{a_min}..{a_max}] n={cap}", f"a={a} vertex={v}"
    return f"a[{a_min}..{a_max}] n={cap}", None


def _claim_in_degree_stability(a_min, a_max, n):
    cap = min(n, _NAIVE_BUILD_CAP)
    for a in _grid(a_min, a_max):
        big = build(a, cap)
        for m in sorted({1, min(2, cap), cap // 2 or 1, cap}):
            small = build(a, m)
            for j in range(1, small.n + 1):
                if graph_mod.in_neighbors(small, j) != graph_mod.in_neighbors(big, j):
                    return f"a[{a_min}..{a_max}] n<={cap}", f"a={a} m={m} j={j}"
    return f"a[{a_min}..{a_max}] n<={cap}", None


def _claim_monotone_delta(a_min, a_max, n):
    # the last prefix is also checked against the full scan of J_n(a)
    for a in _grid(a_min, a_max):
        seq = sequences.c_series(a, n)
        prev = 0
        for m, info in enumerate(graph_mod.prefix_jaconians(seq, n), 1):
            delta = info.delta
            if delta < prev or delta > prev + 1:
                return f"a[{a_min}..{a_max}] n[1..{n}]", f"a={a} n={m} delta {prev}->{delta}"
            prev = delta
        if info != jaconian(JacoGraph(a, n, seq)):
            return f"a[{a_min}..{a_max}] n[1..{n}]", f"a={a} n={n} sweep differs from full scan"
    return f"a[{a_min}..{a_max}] n[1..{n}]", None


def _claim_full_degree_prefix(a_min, a_max, n):
    for a in _grid(a_min, a_max):
        g = build(a, n)
        profile = degree_profile(g)
        d_tot = profile.d_total
        prime = jaconian(g, profile).prime_index
        if d_tot[prime] == a * prime:
            for m in range(1, prime + 1):
                if d_tot[m] != a * m:
                    return f"a[{a_min}..{a_max}] n={n}", f"a={a} m={m}"
    return f"a[{a_min}..{a_max}] n={n}", None


def _claim_complete_prefix(a_min, a_max, n):
    for a in _grid(a_min, a_max):
        for m in range(1, a + 2):
            g = build(a, m)
            info = jaconian(g)
            want_arcs = {(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)}
            if set(arcs(g)) != want_arcs:
                return f"a[{a_min}..{a_max}] m<=a+1", f"a={a} m={m} not complete"
            if info.delta != m - 1 or info.jaconian_set != tuple(range(1, m + 1)):
                return f"a[{a_min}..{a_max}] m<=a+1", f"a={a} m={m} jaconian"
    return f"a[{a_min}..{a_max}] m<=a+1", None


def _claim_degree_step(a_min, a_max, n):
    for a in _grid(a_min, a_max):
        d_tot = degree_profile(build(a, n)).d_total
        for i in range(2, n + 1):
            if abs(d_tot[i] - d_tot[i - 1]) > a:
                return f"a[{a_min}..{a_max}] n={n}", f"a={a} i={i}"
    return f"a[{a_min}..{a_max}] n={n}", None


def _claim_lowest_in_neighbor_attains_delta(a_min, a_max, n):
    # the provable core of the prime-vertex claim: v_{c[n]} attains the
    # maximum degree (the stated "prime = c[n]" fails at degree ties)
    for a in _grid(a_min, a_max):
        seq = sequences.c_series(a, n)
        for m, info in enumerate(graph_mod.prefix_jaconians(seq, n), 1):
            if m < 2:
                continue
            g = JacoGraph(a, m, seq)
            lowest = seq.c[m]
            if len(in_neighbors(g, lowest)) + len(out_neighbors(g, lowest)) != info.delta:
                return f"a[{a_min}..{a_max}] n[2..{n}]", f"a={a} n={m}"
            prime = info.prime_index
            if prime not in (seq.c[m], seq.c[m] - 1):
                return f"a[{a_min}..{a_max}] n[2..{n}]", f"a={a} n={m} prime={prime}"
    return f"a[{a_min}..{a_max}] n[2..{n}]", None


def _claim_hope_complete(a_min, a_max, n):
    for a in _grid(a_min, a_max):
        seq = sequences.c_series(a, n)
        for m, info in enumerate(graph_mod.prefix_jaconians(seq, n), 1):
            ok, witness = hope_is_complete(JacoGraph(a, m, seq), info)
            if not ok:
                return f"a[{a_min}..{a_max}] n[1..{n}]", f"a={a} n={m} missing={witness}"
    return f"a[{a_min}..{a_max}] n[1..{n}]", None


def _claim_edge_triple(a_min, a_max, n):
    for a in _grid(a_min, a_max):
        rec = edge_count_recursive(a, n)
        seq = sequences.c_series(a, n)
        for m, info in enumerate(graph_mod.prefix_jaconians(seq, n), 1):
            g = JacoGraph(a, m, seq)
            direct = edge_count_direct(g)
            thm = edge_count_theorem(g, info)
            if not direct == thm == rec[m - 1]:
                return (
                    f"a[{a_min}..{a_max}] n[1..{n}]",
                    f"a={a} n={m} direct={direct} theorem={thm} recursive={rec[m - 1]}",
                )
    return f"a[{a_min}..{a_max}] n[1..{n}]", None


def _claim_complete_prefix_count(a_min, a_max, n):
    for a in _grid(a_min, a_max):
        for m in range(1, a + 2):
            want = complete_prefix_count(a, m)
            if edge_count_direct(build(a, m)) != want:
                return f"a[{a_min}..{a_max}] m<=a+1", f"a={a} m={m}"
    return f"a[{a_min}..{a_max}] m<=a+1", None


def _claim_milestone(a_min, a_max, n):
    hi = min(a_max, _MILESTONE_A_CAP)
    for a in range(a_min, hi + 1):
        try:
            result = milestone_delta(a)
        except TheoremViolationError as exc:
            return f"a[{a_min}..{hi}]", f"a={a} ({exc})"
        if result.n_star != a * (a + 1) + 1:
            return f"a[{a_min}..{hi}]", f"a={a} n_star={result.n_star}"
    return f"a[{a_min}..{hi}]", None


def _claim_distances(a_min, a_max, n):
    for a in _grid(a_min, a_max):
        g = build(a, n)
        fast = paths_mod.distances(g)
        slow = oracles.bfs_distances(g)
        for i in range(1, n + 1):
            if fast[i] != slow[i]:
                return f"a[{a_min}..{a_max}] n={n}", f"a={a} i={i} {fast[i]}!={slow[i]}"
    return f"a[{a_min}..{a_max}] n={n}", None


def _claim_psi_recursion(a_min, a_max, n):
    if not a_min <= 1 <= a_max:
        return "a=1 (skipped: outside grid)", None
    g = build(1, n)
    if paths_mod.psi_recursive(g) != paths_mod.psi_oracle(g):
        rec = paths_mod.psi_recursive(g)
        dp = paths_mod.psi_oracle(g)
        j = next(i for i in range(1, n + 1) if rec[i] != dp[i])
        return f"a=1 n={n}", f"j={j} recursion={rec[j]} dp={dp[j]}"
    return f"a=1 n={n}", None


def _claim_psi_fast(a_min, a_max, n):
    for a in _grid(a_min, a_max):
        g = build(a, n)
        fast = paths_mod.path_table(g).psi
        slow = paths_mod.psi_oracle(g)
        if fast != slow:
            j = next(i for i in range(1, n + 1) if fast[i] != slow[i])
            return f"a[{a_min}..{a_max}] n={n}", f"a={a} j={j}"
    return f"a[{a_min}..{a_max}] n={n}", None


def _claim_psi_enumeration(a_min, a_max, n):
    cap = min(n, _PATH_ENUM_CAP)
    for a in _grid(a_min, a_max):
        g = build(a, cap)
        psi = paths_mod.psi_oracle(g)
        for j in range(1, cap + 1):
            count = len(oracles.enumerate_shortest_paths(g, j))
            if psi[j] != count:
                return f"a[{a_min}..{a_max}] n={cap}", f"a={a} j={j} dp={psi[j]} enum={count}"
    return f"a[{a_min}..{a_max}] n={cap}", None


def _claim_uniqueness_biconditional(a_min, a_max, n):
    if not a_min <= 1 <= a_max:
        return "a=1 (skipped: outside grid)", None
    report = paths_mod.uniqueness_check(build(1, n))
    if report.mismatches:
        j = report.mismatches[0]
        return f"a=1 j[1..{n}]", f"j={j} unique={report.unique[j]} fib={report.criterion[j]}"
    return f"a=1 j[1..{n}]", None


def _claim_psi_one_at_fib(a_min, a_max, n):
    if not a_min <= 1 <= a_max:
        return "a=1 (skipped: outside grid)", None
    psi = paths_mod.psi_oracle(build(1, n))
    fibs = sequences.recurrence_terms(1, 0, 1, at_least=n)  # 0, 1, 1, 2, 3, 5, ...
    for f in fibs[2:]:
        if f <= n and psi[f] != 1:
            return f"a=1 fib<={n}", f"f={f} psi={psi[f]}"
    return f"a=1 fib<={n}", None


def _claim_distance_roots(a_min, a_max, n):
    for a in _grid(a_min, a_max):
        g = build(a, n)
        roots = paths_mod.distance_roots(g)
        liz_set = set(sequences.recurrence_terms(a, 1, 1, at_least=n))
        for idx in roots.indices:
            if idx != n and idx not in liz_set:
                return f"a[{a_min}..{a_max}] n={n}", f"a={a} index={idx}"
    return f"a[{a_min}..{a_max}] n={n}", None


_CLAIMS: tuple[tuple[str, ClaimFn], ...] = (
    ("seq.seed_values", _claim_seed_values),
    ("seq.degree_identity", _claim_degree_identity),
    ("seq.monotone_step", _claim_monotone_step),
    ("seq.matches_bruteforce_definition", _claim_bruteforce_c),
    ("seq.closed_form", _claim_closed_form),
    ("seq.fixpoint", _claim_fixpoint),
    ("seq.zeck_roundtrip", _claim_zeck_roundtrip),
    ("seq.zeck_uniqueness", _claim_zeck_uniqueness),
    ("seq.zeckendorf_shift_outdegree", _claim_bettina),
    ("seq.outdegree_fixpoints_order1", _claim_outdegree_fixpoints),
    ("seq.binet_crosscheck", _claim_binet),
    ("graph.arc_relation_matches_naive_builder", _claim_arc_relation),
    ("graph.neighborhood_contiguity", _claim_contiguity),
    ("graph.in_degree_stability", _claim_in_degree_stability),
    ("graph.monotone_delta", _claim_monotone_delta),
    ("graph.full_degree_prefix", _claim_full_degree_prefix),
    ("graph.complete_prefix", _claim_complete_prefix),
    ("graph.degree_step_bound", _claim_degree_step),
    ("graph.lowest_in_neighbor_attains_delta", _claim_lowest_in_neighbor_attains_delta),
    ("graph.hope_complete", _claim_hope_complete),
    ("analysis.edge_count_triple_agreement", _claim_edge_triple),
    ("analysis.complete_prefix_count", _claim_complete_prefix_count),
    ("analysis.milestone_delta", _claim_milestone),
    ("paths.distance_recursion_matches_bfs", _claim_distances),
    ("paths.psi_recursion_matches_dp", _claim_psi_recursion),
    ("paths.psi_fast_matches_dp", _claim_psi_fast),
    ("paths.psi_dp_matches_enumeration", _claim_psi_enumeration),
    ("paths.uniqueness_biconditional", _claim_uniqueness_biconditional),
    ("paths.psi_one_at_fibonacci", _claim_psi_one_at_fib),
    ("paths.distance_roots_are_liz_indices", _claim_distance_roots),
)


def verify_suite(a_min: int, a_max: int, n: int, jobs: int = 1) -> VerificationReport:
    """Run every registered claim over the grid a in [a_min, a_max], n.

    Deterministic: the claim order is fixed and each claim reports its
    first counterexample.  jobs is validated and otherwise ignored: the
    claims run serially.
    """
    check_order(a_min)
    if a_max < a_min:
        raise ValueError(f"a_max must be >= a_min, got {a_min}..{a_max}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    results = []
    for claim_id, fn in _CLAIMS:
        checked, counterexample = fn(a_min, a_max, n)
        results.append(ClaimResult(claim_id, checked, counterexample is None, counterexample))
    return VerificationReport(tuple(results))


def render_report(report: VerificationReport) -> str:
    """Line-oriented text form: one CLAIM line each, then OVERALL."""
    lines = []
    for c in report.claims:
        line = f"CLAIM {c.claim_id} {'PASS' if c.passed else 'FAIL'} checked={c.checked}"
        if c.counterexample is not None:
            line += f" counterexample={c.counterexample}"
        lines.append(line)
    lines.append(f"OVERALL {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"
