"""Finite Jaco graphs J_n(a) built on top of the sequence table.

Arcs are never stored: both neighborhoods of a vertex are contiguous
index intervals, so a graph is the prefix n of an order-a sequence table,
which may run past v_n but must reach it (JacoGraph refuses a view outside
its table when it is built).  The out-neighbors of v_i are
[i+1, min(a*i + c[i], n)] and the in-neighbors of v_j are [c[j], j-1].
Vertex indexing is 1-based throughout.

The cut at v_n: by the definition of c, a*i + c[i] >= n exactly when
i >= c[n], so that min is a*i + c[i] below c[n] and n from c[n] on.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator

from .sequences import SequenceTable, c_series


@dataclass(frozen=True)
class JacoGraph:
    """A finite Jaco graph on vertices v_1..v_n: a prefix of its table, of its order."""

    seq: SequenceTable
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n < len(self.seq.c):
            raise ValueError(f"vertex count n must be in 1..{len(self.seq.c) - 1}, got {self.n}")

    @property
    def a(self) -> int:
        return self.seq.a


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

    prime_index, the lowest index attaining delta, is jaconian_set[0];
    hope_range is the (always complete) induced subgraph above it, empty
    when prime = n.
    """

    delta: int
    jaconian_set: tuple[int, ...]
    hope_range: range

    @property
    def prime_index(self) -> int:
        return self.jaconian_set[0]


def build(a: int, n: int) -> JacoGraph:
    """Construct J_n(a) in O(n): the sequence table is the whole graph."""
    return JacoGraph(c_series(a, n), n)


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


def _last_heads(g: JacoGraph) -> Iterator[int]:
    """Yield r_i = min(a*i + c[i], n), the last head of v_i, for v_1..v_n.

    By the cut at v_n, r_i is a*i + c[i] below c[n] and n from it.  v_i has
    out-arcs exactly when r_i > i.
    """
    a, n, c = g.a, g.n, g.seq.c
    k = c[n]
    return chain(map(operator.add, range(a, a * k, a), c[1:k]), repeat(n, n - k + 1))


def arcs(g: JacoGraph) -> Iterator[tuple[int, int]]:
    """All arcs (tail, head) in lexicographic order."""
    return chain.from_iterable(
        zip(repeat(i), range(i + 1, r + 1)) for i, r in enumerate(_last_heads(g), 1)
    )


def degree_profile(g: JacoGraph) -> DegreeProfile:
    """In-, finite out- and total degree of every vertex of J_n(a)."""
    a, n, c = g.a, g.n, g.seq.c
    # by the cut at v_n, the out-degree is (a-1)*i + c[i] below c[n] and
    # n - i from it.  Index 0 comes out as 0 because c[0] = 0.
    k = c[n]
    d_in = tuple([i - c[i] for i in range(n + 1)])
    d_out = tuple([(a - 1) * i + c[i] for i in range(k)] + list(range(n - k, -1, -1)))
    d_tot = tuple(map(operator.add, d_in, d_out))
    return DegreeProfile(d_in, d_out, d_tot)


def _out_arcs(g: JacoGraph, k: int) -> int:
    """Arcs leaving v_1..v_k: the sum of min(a*i + c[i], n) - i over i <= k.

    O(1) from the prefix sum of c: by the cut at v_n, the first
    j = min(k, c[n] - 1) reaches sum to a*j(j+1)/2 + csum[j], and each of
    the k - j later ones is n.
    """
    a, n = g.a, g.n
    j = min(k, g.seq.c[n] - 1)
    return a * j * (j + 1) // 2 + g.seq.csum[j] + (k - j) * n - k * (k + 1) // 2


def edge_count_direct(g: JacoGraph) -> int:
    """Ground truth: sum of finite out-degrees, in O(1) per graph."""
    return _out_arcs(g, g.n)


def _jaconian_at(seq: SequenceTable, m: int) -> JaconianInfo:
    """jaconian(J_m(a)) on the table seq, in O(1) plus the size of the set.

    In J_m(a) vertex v_i has degree min(reach_i, m) - c[i], where
    reach_i = a*i + c[i] increases with i.  By the cut at v_m, the
    vertices with reach_i >= m are exactly those from f = c[m] on.  Every
    v_i below f keeps its full degree a*i, largest at v_{f-1}.  Every later
    vertex has degree m - c[i] (at v_f this holds even when reach_f = m),
    largest at v_f because c is non-decreasing, and tied exactly where
    c[i] = c[f].  Again by the definition of c, c[i] = K holds exactly on
    the interval reach_{K-1} < i <= reach_K, so that tie run is [f, e) with
    e = min(reach_{c[f]}, m) + 1 and needs no scan.  So

        delta = max(a*(f-1), m - c[f]),

    attained by v_{f-1} when f > 1 and a*(f-1) = delta, and by
    v_f..v_{e-1} when m - c[f] = delta.
    """
    a, c = seq.a, seq.c
    f = c[m]
    k = c[f]
    top = m - k
    full = a * (f - 1)
    if full > top:
        return JaconianInfo(full, (f - 1,), range(f, m + 1))
    end = a * k + c[k]
    if end > m:
        end = m
    run = range(f, end + 1)
    if full == top and f > 1:
        return JaconianInfo(top, (f - 1, *run), range(f, m + 1))
    return JaconianInfo(top, tuple(run), range(f + 1, m + 1))


def jaconian(g: JacoGraph) -> JaconianInfo:
    """Maximum total degree, the vertices attaining it, and the Hope range.

    O(1) plus the size of the Jaconian set, by the closed form of _jaconian_at.
    """
    return _jaconian_at(g.seq, g.n)


def hope_is_complete(g: JacoGraph) -> tuple[bool, tuple[int, int] | None]:
    """Whether the subgraph above the prime index is complete.

    Returns (True, None) or (False, first missing pair).  Vacuously true
    for Hope ranges with fewer than two vertices.  The reach a*i + c[i]
    increases with i, so only the first Hope vertex can fall short of v_n.
    """
    hope = jaconian(g).hope_range
    if len(hope) < 2:
        return True, None
    i = hope[0]
    last = g.a * i + g.seq.c[i]
    if last < g.n:
        return False, (i, last + 1)
    return True, None
