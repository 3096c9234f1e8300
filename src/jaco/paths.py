"""Shortest paths from v_1: distances, path counts, and the scanner
for the open non-repetitiveness conjecture at order 1.

Distances follow the forward recursion dist[i] = dist[c[i]] + 1 (the
lowest in-neighbor always lies on a shortest path).  Path counts have one
fast route, path_table, which is linear at every order; psi_oracle, the
standard DAG dynamic program over in-neighbor windows, is its quadratic
reference for the tests and the verification suite.  At order 1, path
uniqueness is compared with the "out-degree is a Fibonacci number"
criterion.  Out-degrees here are always the infinite-graph out-degrees
dplus[j], which at order 1 equal c[j]; the finite graph would give the
last vertex out-degree 0 and trivialize every criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    Each row is (k, dplus triple, psi triple, forward ok, converse ok);
    forward is "dplus non-repetitive implies psi non-repetitive" and
    converse the reverse implication.  Nothing is asserted: violations
    are report content.
    """

    n_max: int
    rows: tuple[tuple[int, tuple[int, int, int], tuple[int, int, int], bool, bool], ...]

    @property
    def violations(self) -> int:
        return sum((not fwd) + (not conv) for _, _, _, fwd, conv in self.rows)


def distances(g: JacoGraph) -> tuple[int, ...]:
    """dist[i] = hops from v_1 to v_i; dist[1] = 0, dist[i] = dist[c[i]] + 1."""
    dist = [0] * (g.n + 1)
    c = g.seq.c
    for i in range(2, g.n + 1):
        dist[i] = dist[c[i]] + 1
    return tuple(dist)


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
        d = dist[j]
        psi[j] = sum(psi[i] for i in range(c[j], j) if dist[i] + 1 == d)
    return tuple(psi)


def path_table(g: JacoGraph) -> PathTable:
    """Distances plus path counts for any order in O(n) via prefix sums.

    c is non-decreasing, so dist[i] = dist[c[i]] + 1 is too (by induction);
    hence the in-neighbors of v_j one hop closer are exactly [c[j], s-1],
    where s is the first vertex at v_j's distance.
    """
    n, c = g.n, g.seq.c
    dist = distances(g)
    psi = [0] * (n + 1)
    psi[1] = 1
    prefix = [0] * (n + 2)  # prefix[i] = psi[1] + ... + psi[i-1]
    prefix[2] = 1
    s = 1
    for j in range(2, n + 1):
        if dist[j] != dist[j - 1]:
            s = j
        psi[j] = prefix[s] - prefix[c[j]]
        prefix[j + 1] = prefix[j] + psi[j]
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


def _non_repetitive(x: int, y: int, z: int) -> bool:
    return x != y and y != z


def conjecture_scan(n_max: int) -> ConjectureReport:
    """Scan the order-1 non-repetitiveness biconditional up to n_max - 1.

    For each k the out-degree triple at (k-1, k, k+1) and the path-count
    triple are classified as repetitive or not, and both implication
    directions are recorded.
    """
    if n_max < 9:
        raise ValueError(f"n_max must be >= 9, got {n_max}")
    g = build(1, n_max)
    dplus = g.seq.c  # at order 1, dplus[k] = c[k]
    psi = path_table(g).psi
    rows = []
    for k in range(7, n_max):
        dtriple = (dplus[k - 1], dplus[k], dplus[k + 1])
        ptriple = (psi[k - 1], psi[k], psi[k + 1])
        d_nr = _non_repetitive(*dtriple)
        p_nr = _non_repetitive(*ptriple)
        forward = p_nr if d_nr else True
        converse = d_nr if p_nr else True
        rows.append((k, dtriple, ptriple, forward, converse))
    return ConjectureReport(n_max, tuple(rows))


def render_conjecture(report: ConjectureReport) -> str:
    """Line-oriented text form of a conjecture scan."""
    lines = []
    for k, dtriple, ptriple, forward, converse in report.rows:
        lines.append(
            "k={} dplus=({},{},{}) psi=({},{},{}) forward={} converse={}".format(
                k, *dtriple, *ptriple,
                "OK" if forward else "VIOLATION",
                "OK" if converse else "VIOLATION",
            )
        )
    lines.append(
        f"SUMMARY scanned=7..{report.n_max - 1} violations={report.violations}"
    )
    lines.append("")
    return "\n".join(lines)
