"""Edge counts by the Hope decomposition and the prime-vertex recurrence
(the direct count lives in graph), the maximum-degree milestone search,
and the verification harness.  The prefix walkers (the milestone search,
the recursive edge count and two claims) each build one sequence table and
read each prefix's maximum degree from the closed form
graph._jaconian_at(seq, m), not from a degree scan.  edge_count_recursive
holds the one copy of the prime-vertex recurrence, and the edge-count
claim reads it.

The harness turns every structural claim the library relies on into a
deterministic pass/fail check over a parameter grid, reporting the first
counterexample of any failing claim.  Each claim checks one order a up
to n; a registry holds its id, checked-text tail and caps, and one runner
applies the caps, walks the grid and stops at the first failing order.

One deliberate correction: the source material asserts that the prime
Jaconian vertex is always the lowest in-neighbor c[n] of the last vertex,
which is false at degree ties (J_4(1) has Jaconian set {v_2, v_3} but
c[4] = 3).  What does hold, and what the harness checks, is that v_{c[n]}
always attains the maximum degree and that the subgraph above the prime
vertex is complete.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, repeat, starmap, zip_longest
from math import isqrt
from operator import eq
from typing import Callable

from . import graph as graph_mod
from . import oracles
from . import paths as paths_mod
from . import sequences
from .graph import (
    JacoGraph,
    arcs,
    build,
    degree_profile,
    edge_count_direct,
    hope_is_complete,
    in_neighbors,
    jaconian,
    out_neighbors,
)
from .sequences import check_order


class TheoremViolationError(RuntimeError):
    """A search exhausted its bound without finding a guaranteed witness."""


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    checked: str
    counterexample: str | None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


@dataclass(frozen=True)
class VerificationReport:
    claims: tuple[ClaimResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)


def edge_count_theorem(g: JacoGraph) -> int:
    """Edge total via the Hope decomposition.

    Arcs with tail above the prime index k live in the complete subgraph
    on the n - k Hope vertices; everything else is counted by the finite
    out-degrees of v_1..v_k.  O(1) per graph.
    """
    k = jaconian(g).prime_index
    hope_size = g.n - k
    return hope_size * (hope_size - 1) // 2 + graph_mod._out_arcs(g, k)


def edge_count_recursive(a: int, n_max: int) -> list[int]:
    """Edge totals of J_1(a)..J_{n_max}(a) by the prime-vertex recurrence.

    Growing J_n to J_{n+1} adds n - i arcs when the prime vertex v_i is
    already saturated (degree a*i) and n - i + 1 arcs otherwise.
    Returned list is 0-indexed: result[n - 1] is the total for J_n(a).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    seq = sequences.c_series(a, n_max)
    eps = [0]
    for n in range(1, n_max):
        info = graph_mod._jaconian_at(seq, n)
        i = info.prime_index
        eps.append(eps[-1] + n - i + (info.delta != a * i))
    return eps


def complete_prefix_count(a: int, m: int) -> int:
    """Edge total m(m-1)/2 of the complete prefix, valid for m <= a + 1."""
    check_order(a)
    if not 1 <= m <= a + 1:
        raise ValueError(f"complete-prefix formula requires 1 <= m <= a+1, got m={m}")
    return m * (m - 1) // 2


def milestone_delta(a: int) -> int:
    """n*, the smallest n where the maximum degree reaches a(a+1) and is
    attained by v_{a+1} alone.  The search is bounded at twice the predicted
    value a(a+1) + 1 and failing to find it within the bound is an error."""
    target_delta = a * (a + 1)
    bound = 2 * (target_delta + 1)
    seq = sequences.c_series(a, bound)
    for n in range(1, bound + 1):
        info = graph_mod._jaconian_at(seq, n)
        if info.delta == target_delta and info.jaconian_set == (a + 1,):
            return n
    raise TheoremViolationError(
        f"no n <= {bound} has maximum degree {target_delta} attained by "
        f"v_{a + 1} alone; the milestone prediction is violated for a={a}"
    )


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------

# Each claim decides whether one order a passes up to n: it returns its
# first counterexample, or None.  The grid, the caps and the checked text
# belong to the registry and the runner below it.


def _claim_seed_values(a, n):
    seq = sequences.c_series(a, n)
    if seq.c[0] != 0 or seq.c[1] != 1:
        return f"a={a} c[0]={seq.c[0]} c[1]={seq.c[1]}"


def _claim_degree_identity(a, n):
    # out-degree counted without dplus: the v_j > v_m whose in-window [c[j], j-1]
    # holds v_m; c is non-decreasing and every such j is <= reach_m <= (a+1)*m
    seq = sequences.c_series(a, (a + 1) * n + 1)
    for m in range(1, n + 1):
        if bisect_right(seq.c, m) - 1 - m + seq.dminus[m] != a * m:
            return f"a={a} n={m}"


def _claim_monotone_step(a, n):
    seq = sequences.c_series(a, n)
    for m in range(n):
        if seq.c[m + 1] - seq.c[m] not in (0, 1):
            return f"a={a} n={m}"


def _claim_bruteforce_c(a, n):
    fast = sequences.c_series(a, n).c
    slow = oracles.c_series_bruteforce(a, n)
    if list(fast) != slow:
        m = next(i for i in range(n + 1) if fast[i] != slow[i])
        return f"a={a} n={m}"


def _claim_closed_form(a, n):
    seq = sequences.c_series(a, n)
    for m in range(1, n + 1):
        if sequences.c_closed(a, m) != seq.c[m]:
            return f"a={a} n={m}"


def _claim_fixpoint(a, n):
    seq = sequences.c_series(a, n)
    for k in range(1, n + 1):
        for b in range(a):
            target = a * k + seq.c[k] - b
            if 0 <= target <= n and seq.c[target] != k:
                return f"a={a} k={k} b={b}"


def _claim_zeck_roundtrip(a, n):
    for m in range(n + 1):
        digits = sequences.zeck_encode(a, m)
        try:
            value = sequences.zeck_decode(a, digits)
        except sequences.ZeckDigitError as exc:
            return f"a={a} n={m} ({exc})"
        if value != m:
            return f"a={a} n={m} decoded={value}"


def _claim_zeck_uniqueness(a, n):
    reps = oracles.enumerate_zeck_reps(a, n)
    for value in range(1, n + 1):
        found = reps.get(value, [])
        if len(found) != 1:
            return f"a={a} n={value} reps={len(found)}"
        if found[0] != sequences.zeck_encode(a, value):
            return f"a={a} n={value} greedy differs"


def _claim_bettina(a, n):
    # order-1 out-degrees are c, Hofstadter's G-sequence (OEIS A005206), so
    # floor((m+1)/phi) is exact and shares no code with c_series or c_closed
    for m in range(1, n + 1):
        if sequences.bettina_dplus(m) != (isqrt(5 * (m + 1) ** 2) - m - 1) // 2:
            return f"n={m}"


def _claim_outdegree_fixpoints(a, n):
    # order-1 identities D(i + D(i)) = i and D(i + D(i-1)) = i
    d = sequences.c_series(a, n).dplus
    for i in range(2, n + 1):
        k = i + d[i]
        if k <= n and d[k] != i:
            return f"i={i} D(i+D(i))={d[k]}"
        k2 = i + d[i - 1]
        if k2 <= n and d[k2] != i:
            return f"i={i} D(i+D(i-1))={d[k2]}"


def _claim_binet(a, n):
    # powering amplifies the rounding error of r by a factor ~n, so the
    # exact-after-rounding region is bounded by U_n * n, not by U_n alone
    r = a / 2 + (a * a / 4 + 1) ** 0.5
    s = a / 2 - (a * a / 4 + 1) ** 0.5
    terms = sequences.lucas_terms(a, 90)
    m = 2
    while m < len(terms) and terms[m] * m < 2**50:
        if terms[m] != round((r**m - s**m) / (r - s)):
            return f"a={a} n={m}"
        m += 1


def _claim_arc_relation(a, n):
    # both routes give their arcs in lexicographic order, so the relations
    # agree exactly when the two streams match pair by pair to the longer
    # end; the sets are built only to name a counterexample
    _, heads = oracles.naive_build(a, n)
    g = build(a, n)
    count, naive = edge_count_direct(g), sum(map(len, heads))

    def naive_arcs():
        return chain.from_iterable(zip(repeat(i), h) for i, h in enumerate(heads))

    if count != naive or not all(starmap(eq, zip_longest(arcs(g), naive_arcs()))):
        stray = sorted(set(arcs(g)) ^ set(naive_arcs()))
        if stray:
            return f"a={a} arc={stray[0]}"
        return f"a={a} edges={count} naive={naive}"


def _claim_contiguity(a, n):
    # the neighbors of one vertex are distinct and ascending, so they form
    # an interval exactly when their span equals their number
    tails, heads = oracles.naive_build(a, n)
    for v in range(1, n + 1):
        for nbrs in (tails[v], heads[v]):
            if nbrs and nbrs[-1] - nbrs[0] + 1 != len(nbrs):
                return f"a={a} vertex={v}"


def _claim_in_degree_stability(a, n):
    big = build(a, n)
    for m in sorted({1, min(2, n), n // 2 or 1, n}):
        small = build(a, m)
        for j in range(1, small.n + 1):
            if graph_mod.in_neighbors(small, j) != graph_mod.in_neighbors(big, j):
                return f"a={a} m={m} j={j}"


def _claim_monotone_delta(a, n):
    # the last prefix is also checked against the degree scan of J_n(a)
    seq = sequences.c_series(a, n)
    prev = 0
    for m in range(1, n + 1):
        info = graph_mod._jaconian_at(seq, m)
        if not prev <= info.delta <= prev + 1:
            return f"a={a} n={m} delta {prev}->{info.delta}"
        prev = info.delta
    if info != oracles.jaconian_scan(JacoGraph(seq, n)):
        return f"a={a} n={n} sweep differs from full scan"


def _claim_full_degree_prefix(a, n):
    g = build(a, n)
    d_tot = degree_profile(g).d_total
    prime = jaconian(g).prime_index
    if d_tot[prime] == a * prime:
        for m in range(1, prime + 1):
            if d_tot[m] != a * m:
                return f"a={a} m={m}"


def _claim_complete_prefix(a, n):
    for m in range(1, a + 2):
        g = build(a, m)
        info = jaconian(g)
        want_arcs = {(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)}
        if set(arcs(g)) != want_arcs:
            return f"a={a} m={m} not complete"
        if info.delta != m - 1 or info.jaconian_set != tuple(range(1, m + 1)):
            return f"a={a} m={m} jaconian"


def _claim_degree_step(a, n):
    d_tot = degree_profile(build(a, n)).d_total
    for i in range(2, n + 1):
        if abs(d_tot[i] - d_tot[i - 1]) > a:
            return f"a={a} i={i}"


def _claim_lowest_in_neighbor_attains_delta(a, n):
    # the provable core of the prime-vertex claim: v_{c[n]} attains the
    # maximum degree (the stated "prime = c[n]" fails at degree ties)
    seq = sequences.c_series(a, n)
    for m in range(2, n + 1):
        info = graph_mod._jaconian_at(seq, m)
        g = JacoGraph(seq, m)
        lowest = seq.c[m]
        if len(in_neighbors(g, lowest)) + len(out_neighbors(g, lowest)) != info.delta:
            return f"a={a} n={m}"
        if info.prime_index not in (lowest, lowest - 1):
            return f"a={a} n={m} prime={info.prime_index}"


def _claim_hope_complete(a, n):
    seq = sequences.c_series(a, n)
    for m in range(1, n + 1):
        ok, witness = hope_is_complete(JacoGraph(seq, m))
        if not ok:
            return f"a={a} n={m} missing={witness}"


def _claim_edge_triple(a, n):
    # the recurrence is checked against the two closed forms at every
    # prefix, and the last prefix also against the literal out-degree sum
    seq = sequences.c_series(a, n)
    for m, rec in enumerate(edge_count_recursive(a, n), 1):
        g = JacoGraph(seq, m)
        direct = edge_count_direct(g)
        thm = edge_count_theorem(g)
        if not direct == thm == rec:
            return f"a={a} n={m} direct={direct} theorem={thm} recursive={rec}"
    literal = oracles.out_degree_sum(g, n)
    if direct != literal:
        return f"a={a} n={n} direct={direct} literal={literal}"


def _claim_complete_prefix_count(a, n):
    for m in range(1, a + 2):
        if edge_count_direct(build(a, m)) != complete_prefix_count(a, m):
            return f"a={a} m={m}"


def _claim_milestone(a, n):
    try:
        n_star = milestone_delta(a)
    except TheoremViolationError as exc:
        return f"a={a} ({exc})"
    if n_star != a * (a + 1) + 1:
        return f"a={a} n_star={n_star}"


def _claim_distances(a, n):
    g = build(a, n)
    fast = paths_mod.distances(g)
    slow = oracles.bfs_distances(g)
    for i in range(1, n + 1):
        if fast[i] != slow[i]:
            return f"a={a} i={i} {fast[i]}!={slow[i]}"


def _claim_psi_recursion(a, n):
    g = build(a, n)
    rec = oracles.psi_recursive(g)
    dp = paths_mod.psi_oracle(g)
    if rec != dp:
        j = next(i for i in range(1, n + 1) if rec[i] != dp[i])
        return f"j={j} recursion={rec[j]} dp={dp[j]}"


def _claim_psi_fast(a, n):
    g = build(a, n)
    fast = paths_mod.path_table(g).psi
    slow = paths_mod.psi_oracle(g)
    if fast != slow:
        j = next(i for i in range(1, n + 1) if fast[i] != slow[i])
        return f"a={a} j={j}"


def _claim_psi_enumeration(a, n):
    g = build(a, n)
    psi = paths_mod.psi_oracle(g)
    for j in range(1, n + 1):
        count = len(oracles.enumerate_shortest_paths(g, j))
        if psi[j] != count:
            return f"a={a} j={j} dp={psi[j]} enum={count}"


def _claim_uniqueness_biconditional(a, n):
    report = paths_mod.uniqueness_check(build(a, n))
    if report.mismatches:
        j = report.mismatches[0]
        return f"j={j} unique={report.unique[j]} fib={report.criterion[j]}"


def _claim_psi_one_at_fib(a, n):
    psi = paths_mod.path_table(build(a, n)).psi
    fibs = sequences.recurrence_terms(a, 0, 1, at_least=n)  # 0, 1, 1, 2, 3, 5, ...
    for f in fibs[2:]:
        if f <= n and psi[f] != 1:
            return f"f={f} psi={psi[f]}"


def _claim_distance_roots(a, n):
    roots = paths_mod.distance_roots(build(a, n))
    liz_set = set(sequences.recurrence_terms(a, 1, 1, at_least=n))
    for idx in roots:
        if idx != n and idx not in liz_set:
            return f"a={a} index={idx}"


# caps keeping the quadratic oracles affordable inside one suite run
_BRUTE_C_CAP = 1500
_NAIVE_BUILD_CAP = 300
_ZECK_ENUM_CAP = 2000
_PATH_ENUM_CAP = 25
_MILESTONE_A_CAP = 20


@dataclass(frozen=True)
class _Claim:
    """A registered claim: fn(a, n) checks one order a up to n.

    tail is the checked text after the grid, formatted with the capped n.
    n_cap and a_cap cut the range short; order1 claims run only at a = 1.
    """

    claim_id: str
    tail: str
    fn: Callable[[int, int], str | None]
    n_cap: int | None = None
    a_cap: int | None = None
    order1: bool = False


_CLAIMS: tuple[_Claim, ...] = (
    _Claim("seq.seed_values", "", _claim_seed_values),
    _Claim("seq.degree_identity", "n[1..{n}]", _claim_degree_identity),
    _Claim("seq.monotone_step", "n[0..{n}]", _claim_monotone_step),
    _Claim("seq.matches_bruteforce_definition", "n[0..{n}]", _claim_bruteforce_c,
           n_cap=_BRUTE_C_CAP),
    _Claim("seq.closed_form", "n[1..{n}]", _claim_closed_form),
    _Claim("seq.fixpoint", "k,b within n<={n}", _claim_fixpoint),
    _Claim("seq.zeck_roundtrip", "n[0..{n}]", _claim_zeck_roundtrip),
    _Claim("seq.zeck_uniqueness", "n[1..{n}]", _claim_zeck_uniqueness, n_cap=_ZECK_ENUM_CAP),
    _Claim("seq.zeckendorf_shift_outdegree", "n[1..{n}]", _claim_bettina, order1=True),
    _Claim("seq.outdegree_fixpoints_order1", "i[2..{n}]", _claim_outdegree_fixpoints,
           order1=True),
    _Claim("seq.binet_crosscheck", "U_n*n < 2^50", _claim_binet),
    _Claim("graph.arc_relation_matches_naive_builder", "n={n}", _claim_arc_relation,
           n_cap=_NAIVE_BUILD_CAP),
    _Claim("graph.neighborhood_contiguity", "n={n}", _claim_contiguity, n_cap=_NAIVE_BUILD_CAP),
    _Claim("graph.in_degree_stability", "n<={n}", _claim_in_degree_stability,
           n_cap=_NAIVE_BUILD_CAP),
    _Claim("graph.monotone_delta", "n[1..{n}]", _claim_monotone_delta),
    _Claim("graph.full_degree_prefix", "n={n}", _claim_full_degree_prefix),
    _Claim("graph.complete_prefix", "m<=a+1", _claim_complete_prefix),
    _Claim("graph.degree_step_bound", "n={n}", _claim_degree_step),
    _Claim("graph.lowest_in_neighbor_attains_delta", "n[2..{n}]",
           _claim_lowest_in_neighbor_attains_delta),
    _Claim("graph.hope_complete", "n[1..{n}]", _claim_hope_complete),
    _Claim("analysis.edge_count_triple_agreement", "n[1..{n}]", _claim_edge_triple),
    _Claim("analysis.complete_prefix_count", "m<=a+1", _claim_complete_prefix_count),
    _Claim("analysis.milestone_delta", "", _claim_milestone, a_cap=_MILESTONE_A_CAP),
    _Claim("paths.distance_recursion_matches_bfs", "n={n}", _claim_distances),
    _Claim("paths.psi_recursion_matches_dp", "n={n}", _claim_psi_recursion, order1=True),
    _Claim("paths.psi_fast_matches_dp", "n={n}", _claim_psi_fast),
    _Claim("paths.psi_dp_matches_enumeration", "n={n}", _claim_psi_enumeration,
           n_cap=_PATH_ENUM_CAP),
    _Claim("paths.uniqueness_biconditional", "j[1..{n}]", _claim_uniqueness_biconditional,
           order1=True),
    _Claim("paths.psi_one_at_fibonacci", "fib<={n}", _claim_psi_one_at_fib, order1=True),
    _Claim("paths.distance_roots_are_liz_indices", "n={n}", _claim_distance_roots),
)


def _run_claim(claim: _Claim, a_min: int, a_max: int, n: int) -> ClaimResult:
    """Cap the range, check each order in it, stop at the first failure."""
    n = min(n, claim.n_cap or n)
    hi = min(a_max, claim.a_cap or a_max)
    if not claim.order1:
        orders, grid = range(a_min, hi + 1), f"a[{a_min}..{hi}]"
    elif a_min <= 1 <= a_max:
        orders, grid = (1,), "a=1"
    else:
        return ClaimResult(claim.claim_id, "a=1 (skipped: outside grid)", None)
    checked = f"{grid} {claim.tail.format(n=n)}".rstrip()
    counterexample = next(filter(None, (claim.fn(a, n) for a in orders)), None)
    return ClaimResult(claim.claim_id, checked, counterexample)


def verify_suite(a_min: int, a_max: int, n: int) -> VerificationReport:
    """Run every registered claim over the grid a in [a_min, a_max], n.

    Deterministic: the claims run serially in a fixed order and each
    reports its first counterexample.
    """
    check_order(a_min)
    if a_max < a_min:
        raise ValueError(f"a_max must be >= a_min, got {a_min}..{a_max}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return VerificationReport(tuple(_run_claim(claim, a_min, a_max, n) for claim in _CLAIMS))


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
