"""Independent brute-force reference implementations.

Everything here recomputes a quantity straight from its definition with
no shortcuts, to serve as the second route of every dual check: the
O(n^2) definition scan for the c series, the per-insertion graph builder,
the per-vertex degree scan for the maximum degree, the out-degree sum of
the edge count, exhaustive digit-string enumeration, breadth-first
distances, and explicit shortest-path enumeration.  These are
deliberately slow and are used by the verification suite and the test
suite only.
"""

from __future__ import annotations

from collections import deque

from .graph import JacoGraph, JaconianInfo, degree_profile, out_neighbors
from .sequences import check_order


def c_series_bruteforce(a: int, horizon: int) -> list[int]:
    """c[n] by literal minimization over every k < n."""
    check_order(a)
    c = [0] * (horizon + 1)
    if horizon >= 1:
        c[1] = 1
    for n in range(2, horizon + 1):
        c[n] = min(k for k in range(1, n) if a * k + c[k] >= n)
    return c


def naive_build(a: int, n: int) -> tuple[set[tuple[int, int]], list[int]]:
    """Arc set of J_n(a) by inserting vertices one at a time.

    When v_j arrives, every v_i with (a+1)*i - d_in(v_i) >= j gains an arc
    to it; in-degrees of earlier vertices are already final at that point.
    Returns (arc set, in-degree list indexed 1..n with a leading zero).
    """
    check_order(a)
    arcs: set[tuple[int, int]] = set()
    d_in = [0] * (n + 1)
    for j in range(2, n + 1):
        for i in range(1, j):
            if (a + 1) * i - d_in[i] >= j:
                arcs.add((i, j))
                d_in[j] += 1
    return arcs, d_in


def jaconian_scan(g: JacoGraph) -> JaconianInfo:
    """Maximum total degree, the vertices attaining it and the Hope range,
    by scanning the degree of every vertex."""
    d_tot = degree_profile(g).d_total
    delta = max(d_tot[1:])
    jset = tuple(i for i in range(1, g.n + 1) if d_tot[i] == delta)
    prime = jset[0]
    return JaconianInfo(delta, jset, prime, range(prime + 1, g.n + 1))


def out_degree_sum(g: JacoGraph, k: int) -> int:
    """Arcs leaving v_1..v_k, one out-neighborhood at a time."""
    return sum(len(out_neighbors(g, i)) for i in range(1, k + 1))


def enumerate_zeck_reps(a: int, max_value: int) -> dict[int, list[tuple[int, ...]]]:
    """All valid digit strings with value in [1, max_value], grouped by value.

    Depth-first over digit positions from the top of the basis down,
    honoring alpha_1 < a, alpha_i <= a, and "a full digit forces a zero
    below it".  Uniqueness means every value maps to exactly one string.
    """
    check_order(a)
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


def bfs_distances(g: JacoGraph) -> list[int]:
    """Hop distances from v_1 by breadth-first search over directed arcs.

    Unreachable vertices would get -1; in a Jaco graph every vertex is
    reachable through the chain v_1 -> v_2 -> ...
    """
    dist = [-1] * (g.n + 1)
    dist[1] = 0
    queue = deque([1])
    while queue:
        i = queue.popleft()
        for j in out_neighbors(g, i):
            if dist[j] == -1:
                dist[j] = dist[i] + 1
                queue.append(j)
    return dist


def enumerate_shortest_paths(g: JacoGraph, target: int) -> list[tuple[int, ...]]:
    """Every shortest directed path v_1 -> v_target, as vertex tuples.

    Plain backtracking without memoization, so the count is a genuine
    enumeration rather than the dynamic program it checks.  Small n only.
    """
    dist = bfs_distances(g)
    paths: list[tuple[int, ...]] = []

    def back(j: int, suffix: tuple[int, ...]) -> None:
        if j == 1:
            paths.append((1,) + suffix)
            return
        for i in range(g.seq.c[j], j):
            if dist[i] + 1 == dist[j]:
                back(i, (j,) + suffix)

    back(target, ())
    return paths
