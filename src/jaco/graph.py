"""Finite Jaco graphs J_n(a) built on top of the sequence table.

Arcs are never stored: both neighborhoods of a vertex are contiguous
index intervals, so a graph is just (a, n) plus the sequence table.  The
out-neighbors of v_i are [i+1, min(a*i + c[i], n)] and the in-neighbors of
v_j are [c[j], j-1].  Vertex indexing is 1-based throughout.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator

from .sequences import SequenceTable, c_series, check_order


@dataclass(frozen=True)
class JacoGraph:
    """A finite Jaco graph of order a on vertices v_1..v_n."""

    a: int
    n: int
    seq: SequenceTable


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex degrees, index 0 unused.

    d_out_finite truncates the infinite out-degree at the vertex cap n;
    d_total is the degree in the underlying undirected simple graph.
    """

    d_in: tuple[int, ...]
    d_out_finite: tuple[int, ...]
    d_total: tuple[int, ...]


@dataclass(frozen=True)
class JaconianInfo:
    """Maximum degree and the vertices attaining it.

    prime_index is the lowest index attaining delta; hope_range is the
    (always complete) induced subgraph above it, empty when prime = n.
    """

    delta: int
    jaconian_set: tuple[int, ...]
    prime_index: int
    hope_range: range


def build(a: int, n: int) -> JacoGraph:
    """Construct J_n(a) in O(n): the sequence table is the whole graph."""
    check_order(a)
    if n < 1:
        raise ValueError(f"vertex count n must be >= 1, got {n}")
    return JacoGraph(a, n, c_series(a, n))


def _check_vertex(g: JacoGraph, i: int) -> None:
    if not 1 <= i <= g.n:
        raise IndexError(f"vertex index {i} out of range 1..{g.n}")


def out_neighbors(g: JacoGraph, i: int) -> range:
    """Heads of arcs leaving v_i: the interval [i+1, min(a*i + c[i], n)]."""
    _check_vertex(g, i)
    return range(i + 1, min(g.a * i + g.seq.c[i], g.n) + 1)


def in_neighbors(g: JacoGraph, j: int) -> range:
    """Tails of arcs entering v_j: the interval [c[j], j-1], empty for v_1."""
    _check_vertex(g, j)
    return range(g.seq.c[j], j)


def arcs(g: JacoGraph) -> Iterator[tuple[int, int]]:
    """All arcs (tail, head) in lexicographic order."""
    for i in range(1, g.n + 1):
        for j in out_neighbors(g, i):
            yield (i, j)


def degree_profile(g: JacoGraph) -> DegreeProfile:
    """In-, finite out- and total degree of every vertex of J_n(a)."""
    a, n, c = g.a, g.n, g.seq.c
    # by the definition of c[n], the reach a*i + c[i] is >= n exactly when
    # i >= c[n]; from there on the out-degree is truncated to n - i.  Index 0
    # comes out as 0 because c[0] = 0.
    k = c[n]
    d_in = tuple([i - c[i] for i in range(n + 1)])
    d_out = tuple([(a - 1) * i + c[i] for i in range(k)] + list(range(n - k, -1, -1)))
    d_tot = tuple(map(operator.add, d_in, d_out))
    return DegreeProfile(d_in, d_out, d_tot)


def jaconian(g: JacoGraph, profile: DegreeProfile | None = None) -> JaconianInfo:
    """Maximum total degree, the vertices attaining it, and the Hope range.

    A caller that already holds degree_profile(g) passes it as profile.
    """
    d_tot = (degree_profile(g) if profile is None else profile).d_total
    delta = max(d_tot[1:])
    jset = tuple(i for i in range(1, g.n + 1) if d_tot[i] == delta)
    prime = jset[0]
    return JaconianInfo(delta, jset, prime, range(prime + 1, g.n + 1))


def prefix_jaconians(seq: SequenceTable, n: int) -> Iterator[JaconianInfo]:
    """Yield jaconian(J_m(a)) for m = 1..n, in one forward pass over seq.

    In J_m(a) vertex v_i has degree min(reach_i, m) - c[i], where
    reach_i = a*i + c[i] increases with i.  The vertices with reach_i <= m
    are therefore a prefix v_1..v_{f-1} whose degrees no longer change: their
    running maximum and the vertices attaining it are kept as they freeze.
    Every later vertex has degree m - c[i], largest at v_f because c is
    non-decreasing, and tied exactly over the run v_f..v_{e-1} where
    c[i] = c[f].  Both pointers only move forward, so the pass costs O(n)
    plus the total length of the Jaconian sets it yields.
    """
    if n > seq.horizon:
        raise ValueError(f"prefix count n={n} exceeds the table horizon {seq.horizon}")
    a, c = seq.a, seq.c
    frozen_delta, frozen_set = -1, []
    f = e = 1
    for m in range(1, n + 1):
        while f <= m and a * f + c[f] <= m:
            degree = (f - c[f]) + (a * f + c[f] - f)
            if degree > frozen_delta:
                frozen_delta, frozen_set = degree, [f]
            elif degree == frozen_delta:
                frozen_set.append(f)
            f += 1
        e = max(e, f)
        while e <= m and c[e] == c[f]:
            e += 1
        top = m - c[f] if f <= m else -1
        delta = max(frozen_delta, top)
        jset = tuple(frozen_set) if frozen_delta == delta else ()
        if top == delta:
            jset += tuple(range(f, e))
        yield JaconianInfo(delta, jset, jset[0], range(jset[0] + 1, m + 1))


def hope_is_complete(
    g: JacoGraph, info: JaconianInfo | None = None
) -> tuple[bool, tuple[int, int] | None]:
    """Whether the subgraph above the prime index is complete.

    Returns (True, None) or (False, first missing pair).  Vacuously true
    for Hope ranges with fewer than two vertices.  The reach a*i + c[i]
    increases with i, so only the first Hope vertex can fall short of v_n.
    A caller that already holds jaconian(g) passes it as info.
    """
    hope = (jaconian(g) if info is None else info).hope_range
    if len(hope) < 2:
        return True, None
    i = hope[0]
    last = g.a * i + g.seq.c[i]
    if last < g.n:
        return False, (i, last + 1)
    return True, None
