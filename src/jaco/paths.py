"""Shortest paths from v_1: distances, path counts, and the scanner
for the open non-repetitiveness conjecture at order 1.

Distances follow the forward recursion dist[i] = dist[c[i]] + 1 (the
lowest in-neighbor always lies on a shortest path).  Since c is
non-decreasing, the vertices at one distance form a run, a level, and
each level's end follows from the previous one's end e alone, as
min(a*e + c[e], n).  distances and path_table walk these levels, about
log n of them, and do the per-vertex work of each level in C iterators:
a run of one repeated distance, and one map into the previous level's
suffix sums for the path counts.  Path counts have one fast route,
path_table, which is linear at every order; psi_oracle, the standard DAG
dynamic program over in-neighbor windows, is its quadratic reference for
the tests and the verification suite.  At order 1, path uniqueness is compared with
the "out-degree is a Fibonacci number" criterion.  Out-degrees here are
always the infinite-graph out-degrees dplus[j], which at order 1 equal
c[j]; the finite graph would give the last vertex out-degree 0 and
trivialize every criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, islice, repeat
from operator import and_, ne, sub
from typing import Iterator

from .graph import JacoGraph, build
from .sequences import recurrence_terms


class UnsupportedOrderError(ValueError):
    """Raised when an order-1-only operation is called with a != 1."""

    def __init__(self, a: int, what: str):
        super().__init__(f"{what} is defined for order a = 1 only, got a = {a}")


@dataclass(frozen=True)
class PathTable:
    """Distances from v_1 and shortest-path counts, index 0 unused."""

    dist: tuple[int, ...]
    psi: tuple[int, ...]


@dataclass(frozen=True)
class UniquenessReport:
    """Per-vertex comparison of path uniqueness with the degree criterion.

    unique[j] is whether v_j has exactly one shortest path from v_1;
    criterion[j] is whether dplus[j] is a Fibonacci number; mismatches
    lists every j where the two disagree.
    """

    unique: tuple[bool, ...]
    criterion: tuple[bool, ...]
    mismatches: tuple[int, ...]


@dataclass(frozen=True)
class ConjectureReport:
    """Scan of the non-repetitiveness biconditional for 7 <= k <= n_max - 1.

    Holds the two columns the scan reads, dplus[0..n_max] (at order 1 this
    is c) and psi[0..n_max], so n_max is len(psi) - 1.  A triple
    (x[k-1], x[k], x[k+1]) is non-repetitive when no two neighbours are
    equal.  Each row is (k, dplus triple, psi triple, forward ok, converse
    ok); forward is "dplus non-repetitive implies psi non-repetitive" and
    converse the reverse implication.  Nothing is asserted: violations are
    report content.
    """

    dplus: tuple[int, ...]
    psi: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.psi) - 1

    @cached_property
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
        # forward fails where only dplus is non-repetitive, converse where only psi is
        return sum(map(ne, *self._flags))


def _non_repetitive(x: tuple[int, ...], n_max: int) -> list[bool]:
    """[x[k-1] != x[k] and x[k] != x[k+1] for k in 7..n_max-1]."""
    steps = list(map(ne, x[6:n_max], x[7 : n_max + 1]))  # steps[i]: x[6+i] != x[7+i]
    return list(map(and_, steps, steps[1:]))


def _levels(g: JacoGraph) -> Iterator[tuple[int, int]]:
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


def distances(g: JacoGraph) -> tuple[int, ...]:
    """dist[i] = hops from v_1 to v_i, with dist[0] = 0: a run of d per level d."""
    runs = (repeat(d, e - s + 1) for d, (s, e) in enumerate(_levels(g)))
    return tuple(chain((0,), chain.from_iterable(runs)))


def psi_oracle(g: JacoGraph) -> tuple[int, ...]:
    """Shortest-path counts by the standard DAG dynamic program.

    psi[j] sums psi over in-neighbors one hop closer to v_1; the
    in-neighbor window [c[j], j-1] is scanned directly, with no reliance
    on any structure of the dist array.
    """
    dist = distances(g)
    psi = [0] * (g.n + 1)
    psi[1] = 1
    c = g.seq.c
    for j in range(2, g.n + 1):
        prev = dist[j] - 1
        psi[j] = sum(psi[i] for i in range(c[j], j) if dist[i] == prev)
    return tuple(psi)


def path_table(g: JacoGraph) -> PathTable:
    """Distances plus path counts for any order in O(n), one level at a time.

    The in-neighbors of v_j one hop closer to v_1 are exactly [c[j], s-1],
    where s is the first vertex of v_j's level, and all of them lie in the
    level before.  Holding that level's suffix sums in R, so that at the
    negative index i - s R holds psi[i] + ... + psi[s-1], psi[j] is
    R[c[j] - s]: a whole level is one map over its slice of c, and its
    counts are the very int objects R holds.  Each level's R is dropped
    once the next level has read it, and the last level builds none.
    """
    dist = distances(g)
    c, n = g.seq.c, g.n
    psi = [0, 1]
    R = [1]  # the suffix sums of level 0, {v_1}
    levels = _levels(g)
    next(levels)
    for s, e in levels:
        psi += map(R.__getitem__, map(sub, c[s : e + 1], repeat(s)))
        if e < n:
            R = list(accumulate(islice(reversed(psi), e - s + 1)))
            R.reverse()
    del R  # drop the sums before tuple(psi) copies psi, so the two never meet
    return PathTable(dist, tuple(psi))


def uniqueness_check(g: JacoGraph) -> UniquenessReport:
    """Compare path uniqueness with the Fibonacci out-degree criterion."""
    if g.a != 1:
        raise UnsupportedOrderError(g.a, "the uniqueness criterion")
    psi = path_table(g).psi
    dplus = g.seq.c  # at order 1, dplus[j] = c[j]
    fibset = set(recurrence_terms(1, 0, 1, at_least=dplus[g.n]))
    unique = [False] + [psi[j] == 1 for j in range(1, g.n + 1)]
    criterion = [False] + [dplus[j] in fibset for j in range(1, g.n + 1)]
    mismatches = tuple(j for j in range(1, g.n + 1) if unique[j] != criterion[j])
    return UniquenessReport(tuple(unique), tuple(criterion), mismatches)


def distance_roots(g: JacoGraph) -> tuple[int, ...]:
    """The i < n with dist[i+1] != dist[i] (the last vertex of each distance
    level below v_n's), then n; verify_suite checks each is a Liz number."""
    dist = distances(g)
    return (*(i for i in range(1, g.n) if dist[i + 1] != dist[i]), g.n)


def conjecture_scan(n_max: int) -> ConjectureReport:
    """Scan the order-1 non-repetitiveness biconditional up to n_max - 1.

    For each k the out-degree triple at (k-1, k, k+1) and the path-count
    triple are classified as repetitive or not, and both implication
    directions are recorded.
    """
    if n_max < 9:
        raise ValueError(f"n_max must be >= 9, got {n_max}")
    g = build(1, n_max)
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

    then a SUMMARY line.  Each value is formatted once and shared by the
    three lines whose triples hold it, and the text is one join over the
    pieces of every line in order, so no line string is built.
    """
    n = report.n_max
    d = list(map(str, report.dplus[6 : n + 1]))
    p = list(map(str, report.psi[6 : n + 1]))
    verdicts = map(_VERDICTS.__getitem__, zip(*report._flags))
    pieces = zip(
        repeat("k="), map(str, range(7, n)),
        repeat(" dplus=("), d, repeat(","), d[1:], repeat(","), d[2:],
        repeat(") psi=("), p, repeat(","), p[1:], repeat(","), p[2:],
        repeat(") "), verdicts,
    )
    summary = f"SUMMARY scanned=7..{n - 1} violations={report.violations}\n"
    return "".join(chain(chain.from_iterable(pieces), (summary,)))
