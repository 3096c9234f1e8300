"""Independent brute-force reference implementations.

Everything here recomputes a quantity straight from its definition with
no shortcuts, to serve as the second route of a dual check.  None of them
reads the closed form it checks; most are deliberately slow, and only the
verification suite and the test suite use them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque

from . import graph, sequences


def c_series_bruteforce(a: int, horizon: int) -> list[int]:
    """c[n] as the least k < n with a*k + c[k] >= n, found by scanning k
    upward from 1 and stopping at the first hit."""
    sequences.check_order(a)
    c = [0] * (horizon + 1)
    if horizon >= 1:
        c[1] = 1
    for n in range(2, horizon + 1):
        for k in range(1, n):
            if a * k + c[k] >= n:
                c[n] = k
                break
    return c


def naive_build(a: int, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Arcs of J_n(a) by inserting vertices one at a time.

    When v_j arrives, every v_i with (a+1)*i - d_in(v_i) >= j gains an arc
    to it.  The in-degree of v_i is final once v_i has arrived, so that
    bound cap[i] = (a+1)*i - d_in(v_i) is fixed on arrival, and v_i is a
    tail of exactly the arrivals i+1..min(cap[i], n).  The replay keeps the
    open vertices, those still gaining heads, in arrival order, and a
    closing schedule keyed by cap[i] + 1: each arrival drops the vertices
    that close at it and takes the rest as its tails.  That is O(n + arcs),
    and it assumes nothing of the shape of the open set, so the tails of
    v_j are whatever set the rule gives, contiguous or not.
    Returns (tails, heads), each indexed 0..n with empty lists at 0:
    tails[j] lists the v_i with an arc to v_j and heads[i] the v_j that v_i
    has an arc to, both ascending, so d_in(v_i) is len(tails[i]).
    """
    sequences.check_order(a)
    tails: list[list[int]] = [[] for _ in range(n + 1)]
    heads: list[list[int]] = [[] for _ in range(n + 1)]
    # heads are slices of one list, so they share its int objects: a fresh
    # list(range(...)) per vertex took about 40 % longer and 50 % more memory
    vertices = list(range(n + 1))
    open_: dict[int, None] = {}  # insertion order is arrival order
    closing: dict[int, list[int]] = {}
    for j in range(1, n + 1):
        for i in closing.pop(j, ()):
            del open_[i]
        tails[j] = list(open_)
        # d_in(v_j) <= j - 1, so cap > j: v_j gains at least the arc to v_{j+1}
        cap = (a + 1) * j - len(tails[j])
        heads[j] = vertices[j + 1 : min(cap, n) + 1]
        open_[j] = None
        if cap < n:
            closing.setdefault(cap + 1, []).append(j)
    return tails, heads


def jaconian_scan(g: graph.JacoGraph) -> graph.JaconianInfo:
    """Maximum total degree, the vertices attaining it and the Hope range,
    by scanning the degree of every vertex."""
    d_tot = graph.degree_profile(g).d_total
    delta = max(d_tot[1:])
    jset = tuple(i for i in range(1, g.n + 1) if d_tot[i] == delta)
    return graph.JaconianInfo(delta, jset, range(jset[0] + 1, g.n + 1))


def out_degree_sum(g: graph.JacoGraph, k: int) -> int:
    """Arcs leaving v_1..v_k, one out-neighborhood at a time."""
    return sum(len(graph.out_neighbors(g, i)) for i in range(1, k + 1))


def enumerate_zeck_reps(a: int, max_value: int) -> dict[int, list[tuple[int, ...]]]:
    """All valid digit strings with value in [1, max_value], grouped by value.

    Depth-first over digit positions from the top of the basis down,
    honoring alpha_1 < a, alpha_i <= a, and "a full digit forces a zero
    below it".  Uniqueness means every value maps to exactly one string.
    """
    sequences.check_order(a)
    terms = [0, 1, a]
    while terms[-1] < max_value:
        terms.append(a * terms[-1] + terms[-2])
    m = len(terms) - 1
    found: dict[int, list[tuple[int, ...]]] = {}
    digits = [0] * (m + 1)  # digits[i] = alpha_i, slot 0 unused

    def descend(i: int, value: int, above_is_full: bool) -> None:
        if i == 0:
            if 1 <= value <= max_value:
                rep = list(digits[1:])
                while rep and rep[-1] == 0:
                    rep.pop()
                found.setdefault(value, []).append(tuple(rep))
            return
        if above_is_full:
            digits[i] = 0
            descend(i - 1, value, False)
            return
        top = a if i > 1 else a - 1
        for alpha in range(top + 1):
            new_value = value + alpha * terms[i]
            if new_value > max_value:
                break
            digits[i] = alpha
            descend(i - 1, new_value, alpha == a)
        digits[i] = 0

    descend(m, 0, False)
    return found


def bfs_distances(g: graph.JacoGraph) -> list[int]:
    """Hop distances from v_1 by breadth-first search over directed arcs.

    Unreachable vertices would get -1; in a Jaco graph every vertex is
    reachable through the chain v_1 -> v_2 -> ...
    """
    dist = [-1] * (g.n + 1)
    dist[1] = 0
    queue = deque([1])
    while queue:
        i = queue.popleft()
        for j in graph.out_neighbors(g, i):
            if dist[j] == -1:
                dist[j] = dist[i] + 1
                queue.append(j)
    return dist


def enumerate_shortest_paths(g: graph.JacoGraph, target: int) -> list[tuple[int, ...]]:
    """Every shortest directed path v_1 -> v_target, as vertex tuples.

    Arcs only go forward, so every path to v_target stays inside
    v_1..v_target: the distances come from a breadth-first search of the
    prefix J_target, not of all of g.  Plain backtracking without
    memoization, so the count is a genuine enumeration rather than the
    dynamic program it checks.  Small n only.
    """
    dist = bfs_distances(graph.JacoGraph(g.seq, target))
    c = g.seq.c
    paths: list[tuple[int, ...]] = []

    def back(j: int, suffix: tuple[int, ...]) -> None:
        if j == 1:
            paths.append((1,) + suffix)
            return
        for i in range(c[j], j):
            if dist[i] + 1 == dist[j]:
                back(i, (j,) + suffix)

    back(target, ())
    return paths


def psi_recursive(g: graph.JacoGraph) -> tuple[int, ...]:
    """Path counts by the Liz-window recursion, at any order.

    A vertex whose c[j] is a Liz number has a unique shortest path (count
    1); otherwise the count sums the counts over the window from the
    lowest in-neighbor c[j] up to the largest Liz number below j.  At
    order 1 these are the Fibonacci numbers, as in the source paper.
    """
    c = g.seq.c
    liz = sequences.recurrence_terms(g.a, 1, 1, at_least=g.n)  # 1, 1, a+1, ...
    lizset = set(liz)
    psi = [0] * (g.n + 1)
    psi[1] = 1
    for j in range(2, g.n + 1):
        if c[j] in lizset:
            psi[j] = 1
        else:
            top = liz[bisect_left(liz, j) - 1]  # largest Liz number < j
            psi[j] = sum(psi[c[j] : top + 1])
    return tuple(psi)
