"""Shortest paths from v_1: distances, path counts, the level theorem
that ties both to the Liz numbers, and the scan of non-repetitive triples.

Distances follow the forward recursion dist[i] = dist[c[i]] + 1 (the
lowest in-neighbor always lies on a shortest path).  Since c is
non-decreasing, the vertices at one distance form a run, a level, and
distances and path_table walk these levels (_levels), about log n of
them, doing the per-vertex work of each level in C iterators.

The level theorem.  Let B be the Liz numbers of order a, the terms
1, 1, a+1, ... of x[i+1] = a*x[i] + x[i-1] (recurrence_terms(a, 1, 1)),
and psi the shortest-path counts.  For every order a >= 1 and every n:

  (L) the distance levels end exactly at the Liz numbers below n and at
      n, and c[B_{m+1}] = B_m;
  (U) psi[j] = 1 exactly when c[j] is a Liz number;
  (N) for 7 <= k < n, the c triple (c[k-1], c[k], c[k+1]) is
      non-repetitive (no two neighbours equal) exactly when the psi
      triple at k is.

The source paper (arXiv:1404.1714) states these at order 1, where the
Liz numbers are the Fibonacci numbers and c is the out-degree
dplus[j] = (a-1)*j + c[j] of the infinite graph (the finite graph would
give the last vertex out-degree 0): (U) is its "one shortest path exactly
at a Fibonacci out-degree" criterion and (N) its non-repetitiveness
biconditional.  At a >= 2 dplus strictly increases, so (N) reads c, not
dplus.  Proof sketch:

  1. c[j] < j for j >= 2, so every vertex is reachable and psi >= 1.  So
     T[i] = psi[1] + ... + psi[i-1] strictly increases for i >= 1.
  2. The level after the one ending at e ends at e' = a*e + c[e], as
     _levels walks them.  The reach a*i + c[i] strictly increases and
     the reach of v_e is e', so c[e'] = e.  Then e'' = a*e' + e, the Liz
     recurrence from 1, a+1.  This gives (L).
  3. The window of v_{e'} one hop closer to v_1 is the single vertex v_e,
     so psi[e'] = psi[e] = 1 by induction.
  4. Inside a level that starts at s, psi[j] = T[s] - T[c[j]].  So
     psi[j] = psi[j+1] exactly when c[j] = c[j+1], and psi[j] = 1 exactly
     when c[j] = s - 1, the previous level end.  Every c[j] lies in the
     previous level, which holds exactly one Liz number.  This gives (U).
  5. A triple inside one level has equal flags, by step 4.  At a level
     boundary e, c[e] != c[e+1] and 1 = psi[e] < psi[e+1].  Once levels
     have at least two vertices, what remains is the interior case.  This
     gives (N).
"""

from __future__ import annotations

__all__ = [
    "PathTable", "UniquenessReport", "ConjectureReport", "distances", "psi_oracle",
    "path_table", "uniqueness_check", "conjecture_scan", "render_conjecture",
]

from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Iterator
from itertools import accumulate, chain, islice, repeat, takewhile
from operator import and_, ne

from . import export, graph, sequences


class PathTable(namedtuple("PathTable", "dist psi")):
    """Distances from v_1 (the bytes of distances) and shortest-path
    counts, index 0 unused."""

    __slots__ = ()


class UniquenessReport(namedtuple("UniquenessReport", "unique mismatches")):
    """Per-vertex comparison of path uniqueness with the Liz criterion (U).

    unique[j] is whether v_j has exactly one shortest path from v_1;
    mismatches lists every j where unique[j] differs from "c[j] is a Liz
    number of the graph's order", which the level theorem says never
    happens.
    """

    __slots__ = ()


class ConjectureReport(namedtuple("ConjectureReport", "dplus psi")):
    """Scan of the non-repetitiveness biconditional for 7 <= k <= n_max - 1.

    Holds the two columns the scan reads, dplus[0..n_max] and psi[0..n_max],
    so n_max is len(psi) - 1.  At order 1 dplus is c; (N) of the level
    theorem is this scan with c in the first column, at every order.  Each
    row is (k, dplus triple, psi triple, forward ok, converse ok); forward
    is "dplus non-repetitive implies psi non-repetitive" and converse the
    reverse implication.  Nothing is asserted: violations are report
    content.  The two flag columns that rows, violations and
    render_conjecture read are computed on each read.
    """

    __slots__ = ()

    @property
    def n_max(self) -> int:
        return len(self.psi) - 1

    @property
    def _flags(self) -> tuple[list[bool], list[bool]]:
        """Whether the dplus and the psi triple at k are non-repetitive, k = 7..n_max-1."""
        return _non_repetitive(self.dplus, self.n_max), _non_repetitive(self.psi, self.n_max)

    @property
    def rows(self) -> tuple[tuple[int, tuple[int, int, int], tuple[int, int, int], bool, bool], ...]:
        d, p = self.dplus, self.psi
        return tuple(
            (k, (d[k - 1], d[k], d[k + 1]), (p[k - 1], p[k], p[k + 1]),
             p_nr or not d_nr, d_nr or not p_nr)
            for k, d_nr, p_nr in zip(range(7, self.n_max), *self._flags)
        )

    @property
    def violations(self) -> int:
        return _violations(self._flags)


def _violations(flags: tuple[list[bool], list[bool]]) -> int:
    # forward fails where only dplus is non-repetitive, converse where only psi is
    return sum(map(ne, *flags))


def _non_repetitive(x: tuple[int, ...], n_max: int) -> list[bool]:
    """[x[k-1] != x[k] and x[k] != x[k+1] for k in 7..n_max-1]."""
    # islice, not slices: no copy of the column is built beside the flags
    steps = list(map(ne, islice(x, 6, n_max), islice(x, 7, n_max + 1)))  # x[6+i] != x[7+i]
    return list(map(and_, steps, islice(steps, 1, None)))


def _levels(g: graph.JacoGraph) -> Iterator[tuple[int, int]]:
    """Yield the first and last vertex of each distance level, v_1's first.

    Level 0 is {v_1}.  dist[i] = dist[c[i]] + 1 and c is non-decreasing,
    so v_i lies past the level ending at v_e exactly when c[i] > e, and
    c[i] <= e exactly when i <= a*e + c[e].  So the level after the one
    ending at v_e ends at min(a*e + c[e], n); only c is read, once per level.
    """
    a, n, c = g.a, g.n, g.seq.c
    s = e = 1
    while True:
        yield s, e
        if e == n:
            return
        s, e = e + 1, min(a * e + c[e], n)


def distances(g: graph.JacoGraph) -> bytes:
    """dist[i] = hops from v_1 to v_i, with dist[0] = 0: a run of d per level d.

    The column is one bytes object, filled one byte run per level; indexing
    and iterating it give the interpreter's shared small ints.  A byte holds
    every level index of a table that fits in memory: by (L), level d >= 1
    starts at v_{B_{d+1} + 1}, and the Liz number B_257 has 54 digits at
    a = 1 and more at every other order.
    """
    # past level 255, bytes((d,)) raises rather than wraps
    return b"\0" + b"".join([bytes((d,)) * (e - s + 1) for d, (s, e) in enumerate(_levels(g))])


def psi_oracle(g: graph.JacoGraph) -> tuple[int, ...]:
    """Shortest-path counts by the standard DAG dynamic program, the
    quadratic reference for path_table.

    psi[j] sums psi over in-neighbors one hop closer to v_1; the
    in-neighbor window [c[j], j-1] is scanned directly, with no reliance
    on any structure of the dist array.
    """
    dist = list(distances(g))  # a list index is faster than a bytes index
    psi = [0] * (g.n + 1)
    psi[1] = 1
    c = g.seq.c
    for j in range(2, g.n + 1):
        prev = dist[j] - 1
        psi[j] = sum(psi[i] for i in range(c[j], j) if dist[i] == prev)
    return tuple(psi)


def path_table(g: graph.JacoGraph) -> PathTable:
    """Distances plus path counts for any order in O(n), one level at a time.

    The in-neighbors of v_j one hop closer to v_1 are exactly [c[j], s-1],
    where s is the first vertex of v_j's level, and all of them lie in the
    level before.  Before each level, that level before parks its suffix
    sums in its own slots of psi, so that psi[i] holds psi[i] + ... +
    psi[s-1] there and psi[j] is the parked psi[c[j]]: a whole level is one
    map over its slice of c, with no offset per vertex, and its counts are
    the very int objects parked there.  The parked slots get their saved
    counts back once the level is read, and the last level parks nothing.
    """
    dist = distances(g)
    c = g.seq.c
    psi = [0, 1]
    levels = _levels(g)
    prev = next(levels)[0]  # the first vertex of the level before
    for s, e in levels:
        counts = psi[prev:s]
        psi[s - 1 : prev - 1 : -1] = accumulate(reversed(counts))
        psi += map(psi.__getitem__, c[s : e + 1])
        psi[prev:s] = counts
        prev = s
    return PathTable(dist, tuple(psi))


def uniqueness_check(g: graph.JacoGraph) -> UniquenessReport:
    """Compare path uniqueness with the Liz criterion: c[j] is a Liz number.

    Both sides are found by search, not by a pass per vertex in Python.  The
    ones of psi come from tuple.index scans, and each Liz number b <= c[n]
    marks its run of c[1..n] with two bisections.  That needs c[0..n] to be
    non-decreasing, which seq.monotone_step checks.  The runs feed only the
    mismatches: the positions in one of the two sets only, ascending.
    """
    psi = path_table(g).psi
    n, c = g.n, g.seq.c
    ones = []
    j = 0
    try:
        while True:
            j = psi.index(1, j + 1)
            ones.append(j)
    except ValueError:
        pass
    del psi  # before any column is built, so the peak is path_table's
    liz = sequences.recurrence_terms(g.a, 1, 1, at_least=c[n])
    runs = []
    for b in takewhile(c[n].__ge__, liz[1:]):  # liz[1:] holds no repeat
        lo = bisect_left(c, b, 1, n + 1)
        runs.append(range(lo, bisect_right(c, b, lo, n + 1)))
    unique = [False] * (n + 1)
    for j in ones:
        unique[j] = True
    mismatches = tuple(sorted(set(ones).symmetric_difference(chain.from_iterable(runs))))
    return UniquenessReport(tuple(unique), mismatches)


def conjecture_scan(n_max: int) -> ConjectureReport:
    """Scan the non-repetitiveness biconditional (N) at order 1 up to n_max - 1."""
    if n_max < 9:
        raise ValueError(f"n_max must be >= 9, got {n_max}")
    g = graph.build(1, n_max)
    return ConjectureReport(g.seq.c, path_table(g).psi)  # at order 1, dplus = c


# the end of each line, keyed by (dplus triple non-repetitive, psi triple
# non-repetitive)
_VERDICTS = {
    (False, False): "forward=OK converse=OK\n",
    (False, True): "forward=OK converse=VIOLATION\n",
    (True, False): "forward=VIOLATION converse=OK\n",
    (True, True): "forward=OK converse=OK\n",
}


def render_conjecture(report: ConjectureReport) -> str:
    """Line-oriented text form of a conjecture scan, one line per k:

        k=7 dplus=(4,4,5) psi=(2,2,1) forward=OK converse=OK

    then a SUMMARY line.  A block of lines lo..hi-1 formats dplus[lo-1..hi]
    and psi[lo-1..hi] once each, so each value is formatted once per block
    (the two at a block's end once more in the next), and its text is one
    join over the pieces of its lines, with no line string built.
    """
    # not one f-string per line: that formats each value three times and
    # took 15-30 % longer
    n = report.n_max
    flags = report._flags
    verdicts = map(_VERDICTS.__getitem__, zip(*flags))

    def lines(lo: int, hi: int) -> str:
        d = list(map(str, report.dplus[lo - 1 : hi + 1]))
        p = list(map(str, report.psi[lo - 1 : hi + 1]))
        pieces = zip(
            repeat("k="), map(str, range(lo, hi)),
            repeat(" dplus=("), d, repeat(","), d[1:], repeat(","), d[2:],
            repeat(") psi=("), p, repeat(","), p[1:], repeat(","), p[2:],
            repeat(") "), islice(verdicts, hi - lo),
        )
        return "".join(chain.from_iterable(pieces))

    summary = f"SUMMARY scanned=7..{n - 1} violations={_violations(flags)}\n"
    return export._joined(7, n, lines, tail=summary)
