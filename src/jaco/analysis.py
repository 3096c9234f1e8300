"""Edge counts by the Hope decomposition and the prime-vertex recurrence
(the direct count lives in graph), the maximum-degree milestone search,
and the verification harness.  The prefix walkers (the milestone search,
the recursive edge count and the monotone-delta and lowest-in-neighbor
claims) build one sequence table each and read the maximum degree of
every prefix from graph._jaconian_at, not from a degree scan.

The harness turns every structural claim the library relies on into a
deterministic pass/fail check over a parameter grid, reporting the first
counterexample of any failing claim.  Each claim checks one order a up
to n, and covers every order of the grid up to its a cap; a registry
holds its id, checked-text tail and caps.  One runner applies the caps
and walks the orders in ascending order, running at each order every
claim that covers it and has not failed yet, so each claim reports its
first failing order.  A claim that compares two routes names the first
index where they part, and a route that ends early reads None there.

One deliberate correction: the source material asserts that the prime
Jaconian vertex is always the lowest in-neighbor c[n] of the last vertex,
which is false at degree ties (J_4(1) has Jaconian set {v_2, v_3} but
c[4] = 3).  What does hold, and what the harness checks, is that v_{c[n]}
always attains the maximum degree and that the subgraph above the prime
vertex is complete.
"""

from __future__ import annotations

__all__ = [
    "TheoremViolationError", "ClaimResult", "VerificationReport", "edge_count_theorem",
    "edge_count_recursive", "milestone_delta", "verify_suite", "render_report",
]

from bisect import bisect_right
from collections import namedtuple
from itertools import (
    chain, combinations, compress, count, islice, repeat, starmap, takewhile, zip_longest,
)
from operator import eq, ne

from . import graph, oracles, paths, sequences

# perfbench reads and traces this binding as jaco.analysis.edge_count_direct;
# no claim reads it, each reads graph.edge_count_direct
from .graph import edge_count_direct


class TheoremViolationError(RuntimeError):
    """A search exhausted its bound without finding a guaranteed witness."""


class ClaimResult(namedtuple("ClaimResult", "claim_id checked counterexample")):
    """One claim's outcome: its id, the checked grid and its first
    counterexample, or None when it passed."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.counterexample is None


class VerificationReport(namedtuple("VerificationReport", "claims")):
    """The ClaimResults of a suite run, in registry order."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)


def edge_count_theorem(g: graph.JacoGraph) -> int:
    """Edge total via the Hope decomposition.

    Arcs with tail above the prime index k live in the complete subgraph
    on the n - k Hope vertices; everything else is counted by the finite
    out-degrees of v_1..v_k.  O(log n) per graph, through the summatory c.
    """
    seq, n = g
    k = graph._jaconian_at(seq, n)[1]
    hope_size = n - k
    return hope_size * (hope_size - 1) // 2 + graph._out_arcs(g, k)


def edge_count_recursive(a: int, n_max: int) -> list[int]:
    """Edge totals of J_1(a)..J_{n_max}(a) by the prime-vertex recurrence.

    Growing J_n to J_{n+1} adds n - i arcs when the prime vertex v_i is
    already saturated (degree a*i) and n - i + 1 arcs otherwise.  This is
    the one copy of the recurrence, and the edge-count claim reads it.
    Returned list is 0-indexed: result[n - 1] is the total for J_n(a).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    seq = sequences.c_series(a, n_max)
    eps = [0]
    for n in range(1, n_max):
        delta, i, _ = graph._jaconian_at(seq, n)
        eps.append(eps[-1] + n - i + (delta != a * i))
    return eps


def milestone_delta(a: int) -> int:
    """n*, the smallest n where the maximum degree reaches a(a+1) and is
    attained by v_{a+1} alone.  The search is bounded at twice the predicted
    value a(a+1) + 1 and failing to find it within the bound is an error."""
    target_delta = a * (a + 1)
    bound = 2 * (target_delta + 1)
    seq = sequences.c_series(a, bound)
    for n in range(1, bound + 1):
        delta, first, last = graph._jaconian_at(seq, n)
        if delta == target_delta and first == last == a + 1:
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

# The second routes that several claims read at the same order (the naive
# builder, the path-count DP, the path table), keyed by (route, a, n).  It
# is a dict only while verify_suite runs one order, so a claim called on
# its own computes every route afresh, and no result outlives its order,
# also when a claim raises.
_order_memo: dict[tuple[object, int, int], object] | None = None


def _per_order(route, a, n, *args):
    """route(*args) for J_n(a), computed once while verify_suite runs order a."""
    if _order_memo is None:
        return route(*args)
    key = (route, a, n)
    if key not in _order_memo:
        _order_memo[key] = route(*args)
    return _order_memo[key]


def _naive_build(a, n):
    return _per_order(oracles.naive_build, a, n, a, n)


def _psi_oracle(g):
    return _per_order(paths.psi_oracle, g.a, g.n, g)


def _path_table(g):
    return _per_order(paths.path_table, g.a, g.n, g)


def _first_difference(xs, ys, start=0):
    """(k, x, y) at the first position k, from start, where xs and ys part, else None."""
    return next(((k, x, y) for k, (x, y) in enumerate(zip_longest(xs, ys), start) if x != y), None)


def _claim_seed_values(a, n):
    # two terms are the whole claim, so the table stops at c[1] whatever n is
    c = sequences.c_series(a, 1).c
    if c[0] != 0 or c[1] != 1:
        return f"a={a} c[0]={c[0]} c[1]={c[1]}"


def _claim_degree_identity(a, n):
    # the out-degree is counted, not taken as (a-1)*m + c[m]: the v_j > v_m whose
    # in-window [c[j], j-1] holds v_m; c is non-decreasing and every such j is
    # <= reach_m <= (a+1)*m.
    # The in-degree m - c[m] is read inline: a column would span the whole table
    c = sequences.c_series(a, (a + 1) * n + 1).c
    for m in range(1, n + 1):
        if (bisect_right(c, m) - 1 - m) + (m - c[m]) != a * m:
            return f"a={a} n={m}"


def _claim_monotone_step(a, n):
    c = sequences.c_series(a, n).c
    for m in range(n):
        if c[m + 1] - c[m] not in (0, 1):
            return f"a={a} n={m}"


def _claim_bruteforce_c(a, n):
    fast = sequences.c_series(a, n).c
    slow = oracles.c_series_bruteforce(a, n)
    if list(fast) != slow:
        return f"a={a} n={_first_difference(fast, slow)[0]}"


def _claim_closed_form(a, n):
    c = sequences.c_series(a, n).c
    closed = map(sequences.c_closed, repeat(a), range(1, n + 1))
    if diff := _first_difference(closed, islice(c, 1, None), 1):
        return f"a={a} n={diff[0]}"


def _claim_fixpoint(a, n):
    c = sequences.c_series(a, n).c
    for k in range(1, n + 1):
        for b in range(a):
            target = a * k + c[k] - b
            if 0 <= target <= n and c[target] != k:
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


def _claim_beatty(a, n):
    # the Beatty form floor(m/r + r/(r+1)) is exact in integers and shares no
    # code with c_series or c_closed; at a = 1 it is Hofstadter's G-sequence
    c = sequences.c_series(a, n).c
    if diff := _first_difference(map(sequences.c_beatty, repeat(a), range(n + 1)), c):
        return f"a={a} n={diff[0]}"


def _claim_run_start(a, n):
    # the run of k in c starts one past reach_{k-1} and seq.fixpoint (b = 0) checks
    # its end, reach_k; at a = 1, D = c and these are D(i+D(i-1)) = D(i+D(i)) = i
    c = sequences.c_series(a, n).c
    for k in range(1, n + 1):
        start = a * (k - 1) + c[k - 1] + 1
        if start <= n and c[start] != k:
            return f"a={a} k={k}"


def _claim_binet(a, n):
    # powering amplifies the rounding error of r by a factor ~n, so the
    # exact-after-rounding region is bounded by U_n * n, not by U_n alone
    r = a / 2 + (a * a / 4 + 1) ** 0.5
    s = a / 2 - (a * a / 4 + 1) ** 0.5
    # the last term is >= 2^50, so the bound below ends the loop within the list
    terms = sequences.recurrence_terms(a, 0, 1, at_least=2**50)
    m = 2
    while terms[m] * m < 2**50:
        if terms[m] != round((r**m - s**m) / (r - s)):
            return f"a={a} n={m}"
        m += 1


def _claim_arc_relation(a, n):
    # both routes give their arcs in lexicographic order, so the relations
    # agree exactly when the streams match pair by pair to the longer end.
    # That check stays in C: _first_difference took 1.7-1.9x as long on the
    # 16 083-29 341 arcs of n = 290 (CPython 3.11).  A failure names an arc
    # in one set only, else the position where the streams part, else the counts
    _, heads = _naive_build(a, n)
    g = graph.build(a, n)
    count, naive = graph.edge_count_direct(g), sum(map(len, heads))

    def naive_arcs():
        return chain.from_iterable(zip(repeat(i), h) for i, h in enumerate(heads))

    if count != naive or not all(
        map(eq, chain(graph.arcs(g), (None,)), chain(naive_arcs(), (None,)))
    ):
        stray = sorted(set(graph.arcs(g)) ^ set(naive_arcs()))
        if stray:
            return f"a={a} arc={stray[0]}"
        if diff := _first_difference(graph.arcs(g), naive_arcs(), 1):
            return "a={} position={} arcs={} naive={}".format(a, *diff)
        return f"a={a} edges={count} naive={naive}"


def _claim_contiguity(a, n):
    # the neighbors of one vertex are distinct and ascending, so they form
    # an interval exactly when their span equals their number
    tails, heads = _naive_build(a, n)
    for v in range(1, n + 1):
        for nbrs in (tails[v], heads[v]):
            if nbrs and nbrs[-1] - nbrs[0] + 1 != len(nbrs):
                return f"a={a} vertex={v}"


def _claim_in_degree_stability(a, n):
    # the naive builder fixes the tails of v_j when v_j arrives, and later
    # arrivals never touch them, so J_n(a)'s in-neighbors are the ones v_j
    # gets in every J_m(a) with m >= j
    tails, _ = _naive_build(a, n)
    g = graph.build(a, n)
    fast = map(list, map(graph.in_neighbors, repeat(g), range(1, n + 1)))
    if diff := _first_difference(fast, islice(tails, 1, None), 1):
        return f"a={a} j={diff[0]}"


def _claim_monotone_delta(a, n):
    # the last prefix is also checked against the degree scan of J_n(a)
    seq = sequences.c_series(a, n)
    prev = 0
    for m in range(1, n + 1):
        delta = graph._jaconian_at(seq, m)[0]
        if not prev <= delta <= prev + 1:
            return f"a={a} n={m} delta {prev}->{delta}"
        prev = delta
    g = graph.JacoGraph(seq, n)
    if graph.jaconian(g) != oracles.jaconian_scan(g):
        return f"a={a} n={n} sweep differs from full scan"


def _claim_full_degree_prefix(a, n):
    g = graph.build(a, n)
    d_tot = graph.degree_profile(g).d_total
    prime = graph.jaconian(g).prime_index
    if d_tot[prime] == a * prime:
        if diff := _first_difference(islice(d_tot, 1, prime + 1), range(a, a * prime + 1, a), 1):
            return f"a={a} m={diff[0]}"


def _claim_complete_prefix(a, n):
    for m in range(1, a + 2):
        g = graph.build(a, m)
        info = graph.jaconian(g)
        if _first_difference(graph.arcs(g), combinations(range(1, m + 1), 2)):
            return f"a={a} m={m} not complete"
        if info.delta != m - 1 or info.jaconian_set != tuple(range(1, m + 1)):
            return f"a={a} m={m} jaconian"


def _claim_degree_step(a, n):
    d_tot = graph.degree_profile(graph.build(a, n)).d_total
    for i in range(2, n + 1):
        if abs(d_tot[i] - d_tot[i - 1]) > a:
            return f"a={a} i={i}"


def _claim_lowest_in_neighbor_attains_delta(a, n):
    # the provable core of the prime-vertex claim: v_{c[n]} attains the
    # maximum degree (the stated "prime = c[n]" fails at degree ties)
    seq = sequences.c_series(a, n)
    c = seq.c
    for m in range(2, n + 1):
        delta, first, _ = graph._jaconian_at(seq, m)
        g = graph.JacoGraph(seq, m)
        lowest = c[m]
        if len(graph.in_neighbors(g, lowest)) + len(graph.out_neighbors(g, lowest)) != delta:
            return f"a={a} n={m}"
        if first not in (lowest, lowest - 1):
            return f"a={a} n={m} prime={first}"


def _claim_hope_complete(a, n):
    seq = sequences.c_series(a, n)
    for m in range(1, n + 1):
        ok, witness = graph.hope_is_complete(graph.JacoGraph(seq, m))
        if not ok:
            return f"a={a} n={m} missing={witness}"


def _claim_edge_triple(a, n):
    # the recurrence is checked against the two closed forms at every
    # prefix, and the last prefix also against the literal out-degree sum
    seq = sequences.c_series(a, n)
    for m, rec in enumerate(edge_count_recursive(a, n), 1):
        g = graph.JacoGraph(seq, m)
        direct = graph.edge_count_direct(g)
        thm = edge_count_theorem(g)
        if not direct == thm == rec:
            return f"a={a} n={m} direct={direct} theorem={thm} recursive={rec}"
    literal = oracles.out_degree_sum(g, n)
    if direct != literal:
        return f"a={a} n={n} direct={direct} literal={literal}"


def _claim_complete_prefix_count(a, n):
    for m in range(1, a + 2):
        if graph.edge_count_direct(graph.build(a, m)) != m * (m - 1) // 2:
            return f"a={a} m={m}"


def _claim_milestone(a, n):
    try:
        n_star = milestone_delta(a)
    except TheoremViolationError as exc:
        return f"a={a} ({exc})"
    if n_star != a * (a + 1) + 1:
        return f"a={a} n_star={n_star}"


def _claim_distances(a, n):
    g = graph.build(a, n)
    fast = paths.distances(g)
    slow = oracles.bfs_distances(g)
    if diff := _first_difference(islice(fast, 1, None), islice(slow, 1, None), 1):
        return "a={} i={} {}!={}".format(a, *diff)


def _claim_psi_recursion(a, n):
    g = graph.build(a, n)
    rec = oracles.psi_recursive(g)
    dp = _psi_oracle(g)
    if rec != dp:
        return "a={} j={} recursion={} dp={}".format(a, *_first_difference(rec, dp))


def _claim_psi_fast(a, n):
    g = graph.build(a, n)
    fast = _path_table(g).psi
    slow = _psi_oracle(g)
    if fast != slow:
        return f"a={a} j={_first_difference(fast, slow)[0]}"


def _claim_psi_enumeration(a, n):
    g = graph.build(a, n)
    psi = _psi_oracle(g)
    enum = map(len, map(oracles.enumerate_shortest_paths, repeat(g), range(1, n + 1)))
    if diff := _first_difference(islice(psi, 1, None), enum, 1):
        return "a={} j={} dp={} enum={}".format(a, *diff)


def _claim_uniqueness_biconditional(a, n):
    # (U) is recomputed from the path counts and the Liz set, and the
    # report must carry the same three fields: its own mismatches are not
    # taken as given.  The report comes first, so the path table that
    # uniqueness_check builds is gone before the shared one is built.  The
    # recomputed columns are iterators, each made afresh for every pass, so
    # the claim holds no column of its own beside the report and the table
    g = graph.build(a, n)
    report = paths.uniqueness_check(g)
    psi, c = _path_table(g).psi, g.seq.c
    liz = set(sequences.recurrence_terms(a, 1, 1, at_least=n))

    def unique():  # the column from j = 1 on; j = 0 is no vertex and reads False
        return map((1).__eq__, islice(psi, 1, None))

    def criterion():
        return map(liz.__contains__, islice(c, 1, n + 1))

    j = next(compress(count(1), map(ne, unique(), criterion())), None)
    if j is not None:
        return f"a={a} j={j} unique={psi[j] == 1} liz={c[j] in liz}"
    columns = (chain((False,), unique()), chain((False,), criterion()), ())
    for field, want, got in zip(report._fields, columns, report):
        k = next(compress(count(), starmap(ne, zip_longest(want, got))), None)
        if k is not None:
            return f"a={a} report {field}[{k}]={got[k] if k < len(got) else None}"


def _claim_level_ends(a, n):
    # (L) of the level theorem: the levels of the distances end at the Liz
    # numbers below n, and c[B_{m+1}] = B_m; and each Liz vertex has one
    # shortest path (step 3 of its proof)
    g = graph.build(a, n)
    table = _path_table(g)
    dist, psi, c = table.dist, table.psi, g.seq.c
    liz = sequences.recurrence_terms(a, 1, 1, at_least=n)  # 1, 1, a+1, ...
    ends = compress(range(1, n), map(ne, dist[1:n], dist[2:]))
    if diff := _first_difference(ends, takewhile(n.__gt__, liz[1:])):
        return "a={} level={} end={} liz={}".format(a, *diff)
    for lo, hi in zip(liz, takewhile(n.__ge__, liz[1:])):
        if c[hi] != lo:
            return f"a={a} liz={hi} c={c[hi]}"
        if psi[hi] != 1:
            return f"a={a} liz={hi} psi={psi[hi]}"


def _claim_non_repetition(a, n):
    # (N) of the level theorem: the c triple at k is non-repetitive exactly
    # when the psi triple is
    g = graph.build(a, n)
    report = paths.ConjectureReport(g.seq.c, _path_table(g).psi)
    # the first k where the two flags part, with no row built
    k = next(compress(count(7), map(ne, *report._flags)), None)
    if k is not None:
        return f"a={a} k={k}"


# caps keeping the slow second routes affordable inside one suite run
_BRUTE_C_CAP = 1500
# the quadratic path routes (BFS, the path-count DP, the Liz-window recursion);
# 2100 is the largest n of the golden verify reports, so they keep their bytes
_PATH_ORACLE_CAP = 2100
# the naive builder is linear in its output, but that output is Theta(n^2)
# neighbor lists, and the golden verify reports print n=300
_NAIVE_BUILD_CAP = 300
_ZECK_ENUM_CAP = 2000
_PATH_ENUM_CAP = 25
_MILESTONE_A_CAP = 20


class _Claim(namedtuple("_Claim", "claim_id tail fn n_cap a_cap", defaults=(None, None))):
    """A registered claim: fn(a, n) checks one order a up to n.

    tail is the checked text after the grid, formatted with the capped n.
    n_cap and a_cap, None by default, cut the range short.
    """

    __slots__ = ()


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
    _Claim("seq.beatty_form", "n[0..{n}]", _claim_beatty),
    _Claim("seq.run_start_fixpoint", "k within n<={n}", _claim_run_start),
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
    # the id names the theorem m(m-1)/2, not a function; it is kept for the report bytes
    _Claim("analysis.complete_prefix_count", "m<=a+1", _claim_complete_prefix_count),
    _Claim("analysis.milestone_delta", "", _claim_milestone, a_cap=_MILESTONE_A_CAP),
    _Claim("paths.distance_recursion_matches_bfs", "n={n}", _claim_distances,
           n_cap=_PATH_ORACLE_CAP),
    _Claim("paths.psi_recursion_matches_dp", "n={n}", _claim_psi_recursion,
           n_cap=_PATH_ORACLE_CAP),
    _Claim("paths.psi_fast_matches_dp", "n={n}", _claim_psi_fast, n_cap=_PATH_ORACLE_CAP),
    _Claim("paths.psi_dp_matches_enumeration", "n={n}", _claim_psi_enumeration,
           n_cap=_PATH_ENUM_CAP),
    _Claim("paths.uniqueness_biconditional", "j[1..{n}]", _claim_uniqueness_biconditional),
    _Claim("paths.level_ends_are_liz", "n={n}", _claim_level_ends),
    _Claim("paths.non_repetition_any_order", "7<=k<{n}", _claim_non_repetition),
)


def _plan(claim: _Claim, a_min: int, a_max: int, n: int) -> tuple[int, range, str]:
    """The capped n, the orders and the checked text of one claim on the grid."""
    n = min(n, claim.n_cap or n)
    hi = min(a_max, claim.a_cap or a_max)
    return n, range(a_min, hi + 1), f"a[{a_min}..{hi}] {claim.tail.format(n=n)}".rstrip()


def verify_suite(a_min: int, a_max: int, n: int) -> VerificationReport:
    """Run every registered claim over the grid a in [a_min, a_max], n.

    Deterministic: the orders are walked in ascending order, and at each
    one the claims that cover it and have not failed yet run serially in
    registry order, so each claim reports its first counterexample.  A
    claim that raises fails at that order with the counterexample
    "a=<a> raised <exception type>", and the others run on.  A MemoryError
    or an OverflowError, which CPython raises when it refuses a table too
    large to index, ends the run.
    """
    global _order_memo
    sequences.check_order(a_min)
    if a_max < a_min:
        raise ValueError(f"a_max must be >= a_min, got {a_min}..{a_max}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    plans = [(claim, *_plan(claim, a_min, a_max, n)) for claim in _CLAIMS]
    found: list[str | None] = [None] * len(plans)
    for a in range(a_min, a_max + 1):
        _order_memo = {}
        try:
            for k, (claim, capped, orders, _) in enumerate(plans):
                if found[k] is None and a in orders:
                    try:
                        found[k] = claim.fn(a, capped)
                    except (MemoryError, OverflowError):
                        # a refused allocation: the input is too large
                        raise
                    except Exception as exc:
                        # no message text: it varies across Python versions
                        found[k] = f"a={a} raised {type(exc).__name__}"
        finally:
            _order_memo = None
    return VerificationReport(tuple(
        ClaimResult(claim.claim_id, checked, counterexample)
        for (claim, _, _, checked), counterexample in zip(plans, found)
    ))


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
