"""Finite Jaco graphs J_n(a) built on top of the sequence table.

Arcs are never stored: both neighborhoods of a vertex are contiguous
index intervals, so a graph is the prefix n of an order-a sequence table,
which may run past v_n but must reach it.  The out-neighbors of v_i are
[i+1, min(a*i + c[i], n)] and the in-neighbors of v_j are [c[j], j-1].
Vertex indexing is 1-based throughout.

The cut at v_n: by the definition of c, a*i + c[i] >= n exactly when
i >= c[n], so that min is a*i + c[i] below c[n] and n from c[n] on.
"""

from __future__ import annotations

__all__ = [
    "JacoGraph", "DegreeProfile", "JaconianInfo", "build", "out_neighbors", "in_neighbors",
    "arcs", "degree_profile", "edge_count_direct", "jaconian", "hope_is_complete",
]

import operator
from collections import namedtuple
from collections.abc import Iterator
from itertools import chain, repeat

from . import sequences


class JacoGraph(namedtuple("JacoGraph", "seq n")):
    """A finite Jaco graph on vertices v_1..v_n: a prefix of its table, of its order.

    A named tuple (seq, n) that refuses a view outside its table: __new__
    checks the range, pickle and copy rebuild through __new__, and _make,
    which _replace calls, builds through it too.
    """

    __slots__ = ()

    def __new__(cls, seq: sequences.SequenceTable, n: int):
        if not 1 <= n < len(seq.c):
            raise ValueError(f"vertex count n must be in 1..{len(seq.c) - 1}, got {n}")
        return tuple.__new__(cls, (seq, n))

    @classmethod
    def _make(cls, iterable) -> JacoGraph:
        return cls(*iterable)

    @property
    def a(self) -> int:
        return self.seq.a


class DegreeProfile(namedtuple("DegreeProfile", "d_in d_out_finite d_total")):
    """Per-vertex degrees, index 0 unused.

    d_out_finite truncates the infinite out-degree at the vertex cap n;
    d_total is the degree in the underlying undirected simple graph.
    """

    __slots__ = ()


class JaconianInfo(namedtuple("JaconianInfo", "delta jaconian_set hope_range")):
    """Maximum degree and the vertices attaining it.

    delta is an int and jaconian_set a tuple of vertex indices; the prime
    index, the lowest index attaining delta, is jaconian_set[0]; hope_range
    is the range of the (always complete) induced subgraph above it, empty
    when prime = n.
    """

    __slots__ = ()

    @property
    def prime_index(self) -> int:
        return self.jaconian_set[0]


def build(a: int, n: int) -> JacoGraph:
    """Construct J_n(a) in O(n): the sequence table is the whole graph."""
    return JacoGraph(sequences.c_series(a, n), n)


# The neighborhood queries run in per-vertex loops, and a named tuple
# field read costs about twice a slot read: each unpacks its graph once.

def _vertex_error(i: int, n: int) -> IndexError:
    return IndexError(f"vertex index {i} out of range 1..{n}")


def out_neighbors(g: JacoGraph, i: int) -> range:
    """Heads of arcs leaving v_i: the interval [i+1, min(a*i + c[i], n)]."""
    (a, c), n = g
    if not 1 <= i <= n:
        raise _vertex_error(i, n)
    return range(i + 1, min(a * i + c[i], n) + 1)


def in_neighbors(g: JacoGraph, j: int) -> range:
    """Tails of arcs entering v_j: the interval [c[j], j-1], empty for v_1."""
    (_, c), n = g
    if not 1 <= j <= n:
        raise _vertex_error(j, n)
    return range(c[j], j)


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
    """In-, finite out- and total degree of every vertex of J_n(a).

    Every degree lies in 0..n (the underlying graph is simple), so the
    three columns take their entries from one list, ints = [0, 1, ..., n]:
    a profile holds one int object per vertex, not three.  With k = c[n],
    by the cut at v_n:

        d_in[i]         = i - c[i]
        d_out_finite[i] = (a-1)*i + c[i] below k,   n - i from k on,
        d_total[i]      = a*i             below k,   n - c[i] from k on.

    Index 0 comes out as 0 in each column because c[0] = 0.
    """
    a, n, c = g.a, g.n, g.seq.c
    k = c[n]
    ints = list(range(n + 1))
    d_in = tuple([ints[i - ci] for i, ci in zip(range(n + 1), c)])
    d_out = tuple([ints[(a - 1) * i + c[i]] for i in range(k)] + ints[n - k :: -1])
    d_tot = tuple(ints[0 : a * k : a] + [ints[n - ci] for ci in c[k : n + 1]])
    return DegreeProfile(d_in, d_out, d_tot)


def _not_a_series(m: int, k: int) -> ValueError:
    return ValueError(f"c[{m}] = {k} exceeds {m}: not a series of c")


def _summatory(c, a: int, m: int) -> int:
    """S(m) = c[0] + ... + c[m] of the order-a series c, in O(log m).

    By the definition of c, c[i] >= K exactly when i > a*(K-1) + c[K-1].
    With k = c[m], each K = 1..k has m - a*(K-1) - c[K-1] such i in 1..m,
    and summing these counts gives

        S(m) = k*m - a*k(k-1)/2 - S(k-1),   S(0) = 0.

    Each step takes m to c[m] - 1, below m/phi, and reads c at one index.
    The terms alternate in sign; the loop sums each term doubled, halving
    once at the end.  A table with c[m] > m at a step is no series of c,
    and would never reach m = 0: it raises ValueError.
    """
    twice, sign = 0, 1
    while m > 0:
        k = c[m]
        if k > m:
            raise _not_a_series(m, k)
        twice += sign * k * (2 * m - a * (k - 1))
        sign = -sign
        m = k - 1
    return twice // 2


def _out_arcs(g: JacoGraph, k: int) -> int:
    """Arcs leaving v_1..v_k: the sum of min(a*i + c[i], n) - i over i <= k.

    O(log n) from the summatory c: by the cut at v_n, the first
    j = min(k, c[n] - 1) reaches sum to a*j(j+1)/2 + S(j), and each of
    the k - j later ones is n.
    """
    (a, c), n = g
    j = min(k, c[n] - 1)
    return a * j * (j + 1) // 2 + _summatory(c, a, j) + (k - j) * n - k * (k + 1) // 2


def edge_count_direct(g: JacoGraph) -> int:
    """Ground truth: sum of finite out-degrees, in O(log n) per graph."""
    return _out_arcs(g, g.n)


def _jaconian_at(seq: sequences.SequenceTable, m: int) -> tuple[int, int, int]:
    """(delta, first, last) of J_m(a) on the table seq, in O(1).

    delta is the maximum degree of J_m(a); the vertices attaining it are
    exactly the run v_first..v_last, and first is the prime index.

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
    v_f..v_{e-1} when m - c[f] = delta.  v_{f-1} sits just below the tie
    run, so in each of the three cases the set is one contiguous run.
    """
    a, c = seq
    f = c[m]
    k = c[f]
    top = m - k
    full = a * (f - 1)
    if full > top:
        return full, f - 1, f - 1
    end = a * k + c[k]
    # a comparison, not min(): the prefix walkers call this once per prefix,
    # and a call to min() made milestone_delta half again as slow
    if end > m:
        end = m
    if full == top and f > 1:
        return top, f - 1, end
    return top, f, end


def jaconian(g: JacoGraph) -> JaconianInfo:
    """Maximum total degree, the vertices attaining it, and the Hope range.

    O(1) plus the size of the Jaconian set, by the closed form of
    _jaconian_at: the set is the run v_first..v_last and the Hope range
    runs from first + 1 to n.  Only this route builds a JaconianInfo; the
    prefix walkers in analysis and hope_is_complete read _jaconian_at's
    three ints.
    """
    seq, n = g
    delta, first, last = _jaconian_at(seq, n)
    return JaconianInfo(delta, tuple(range(first, last + 1)), range(first + 1, n + 1))


def hope_is_complete(g: JacoGraph) -> tuple[bool, tuple[int, int] | None]:
    """Whether the subgraph above the prime index is complete, in O(1).

    Returns (True, None) or (False, first missing pair).  The Hope range
    runs from i = first + 1 to n, with the prime index first read from
    _jaconian_at, and is vacuously complete with fewer than two vertices.
    The reach a*i + c[i] increases with i, so only the first Hope vertex
    can fall short of v_n.
    """
    seq, n = g
    i = _jaconian_at(seq, n)[1] + 1
    if i >= n:
        return True, None
    a, c = seq
    last = a * i + c[i]
    if last < n:
        return False, (i, last + 1)
    return True, None
