import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jaco import analysis, paths
from jaco.graph import JacoGraph, build, out_neighbors
from jaco.oracles import bfs_distances, enumerate_shortest_paths, psi_recursive
from jaco.paths import (
    ConjectureReport,
    PathTable,
    conjecture_scan,
    distances,
    path_table,
    psi_oracle,
    render_conjecture,
    uniqueness_check,
)
from jaco.sequences import c_closed, c_series, recurrence_terms


class TestDistances:
    def test_examples(self):
        assert list(distances(build(1, 8))[1:]) == [0, 1, 2, 3, 3, 4, 4, 4]
        assert list(distances(build(1, 13))[9:]) == [5, 5, 5, 5, 5]
        assert list(distances(build(3, 1))[1:]) == [0]

    @pytest.mark.parametrize("a", range(1, 13))
    def test_matches_bfs(self, a):
        # a breadth-first search never leaves the prefix J_n, so one search
        # of J_500 gives every n <= 500; each n is a graph on its own table
        bfs = bytes([0] + bfs_distances(build(a, 500))[1:])
        for n in range(1, 501):
            assert distances(build(a, n)) == bfs[: n + 1], f"a={a} n={n}"

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_stable_across_truncations(self, a):
        big = distances(build(a, 300))
        for n in (10, 120):
            assert distances(build(a, n)) == big[: n + 1]

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_entries_are_shared_ints(self, a):
        # one int object per level, not one per vertex
        dist = distances(build(a, 50_000))
        assert len(set(map(id, dist[1:]))) == dist[-1] + 1

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_a_byte_holds_every_level(self, a):
        # level d >= 1 starts just past the Liz number B_{d+1} = liz[d], so
        # level 256, the first a byte cannot hold, starts past B_257, a
        # table of more than 10**50 vertices
        liz = recurrence_terms(a, 1, 1, count=257)
        dist = distances(build(a, 10_000))
        for d in range(1, dist[-1] + 1):
            assert dist[liz[d]] == d - 1 and dist[liz[d] + 1] == d, f"a={a} d={d}"
        assert liz[256] > 10**50

    def test_peak_stays_near_the_result(self):
        # the result is the joined byte runs of the levels with dist[0] in
        # front: one byte per vertex, and at its peak the join beside it
        n = 200_000
        g = build(1, n)
        tracemalloc.start()
        try:
            dist = distances(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(dist) is bytes and len(dist) == n + 1
        assert peak <= 2.25 * (n + 1), f"peak {peak} n {n}"


class TestPsiOracle:
    def test_examples(self):
        assert list(psi_oracle(build(1, 13))[1:]) == [1, 1, 1, 1, 1, 2, 2, 1, 5, 5, 3, 1, 1]
        assert psi_oracle(build(2, 1)) == (0, 1)

    def test_two_paths_to_v7(self):
        paths = enumerate_shortest_paths(build(1, 7), 7)
        assert sorted(paths) == [(1, 2, 3, 4, 7), (1, 2, 3, 5, 7)]

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_matches_explicit_enumeration(self, a):
        g = build(a, 25)
        psi = psi_oracle(g)
        for j in range(1, 26):
            assert psi[j] == len(enumerate_shortest_paths(g, j))

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_enumeration_stays_in_the_prefix(self, a):
        # every path to v_j lies in J_j: the graph and its prefix give the
        # same paths, each a chain of arcs of the graph as long as the distance
        g = build(a, 25)
        dist = bfs_distances(g)
        for j in range(1, 26):
            found = enumerate_shortest_paths(g, j)
            assert found == enumerate_shortest_paths(build(a, j), j), f"j={j}"
            for path in found:
                assert path[0] == 1 and path[-1] == j
                assert len(path) == dist[j] + 1
                assert all(w in out_neighbors(g, v) for v, w in zip(path, path[1:]))

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_every_vertex_reachable(self, a):
        assert all(p >= 1 for p in psi_oracle(build(a, 300))[1:])


class TestPsiRecursive:
    def test_window_examples(self):
        psi = psi_recursive(build(1, 13))
        assert psi[7] == 2  # psi_4 + psi_5
        assert psi[9] == 5  # psi_6 + psi_7 + psi_8
        assert psi[11] == 3  # psi_7 + psi_8

    def test_matches_oracle(self):
        g = build(1, 800)
        assert psi_recursive(g) == psi_oracle(g)

    def test_matches_oracle_at_higher_orders(self):
        # the Liz-window recursion: at a = 2 the Liz numbers are 1, 3, 7, 17
        g = build(2, 20)
        psi = psi_recursive(g)
        assert psi[8] == 6  # psi_4 + ... + psi_7
        assert psi[11] == 4  # psi_5 + psi_6 + psi_7
        assert psi[16] == 1  # c[16] = 7 is a Liz number
        for a in range(2, 7):
            for n in (1, 2, 3, 7, 9, 50, 290, 1500):
                g = build(a, n)
                assert psi_recursive(g) == psi_oracle(g), f"a={a} n={n}"


class TestPsiFast:
    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_matches_oracle(self, a):
        g = build(a, 600)
        assert path_table(g).psi == psi_oracle(g)

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
    def test_dist_non_decreasing(self, a):
        # path_table relies on this; distances are stable under truncation,
        # so one graph covers every n <= 2*10^4
        dist = path_table(build(a, 20_000)).dist
        assert all(dist[i] <= dist[i + 1] for i in range(1, 20_000))

    @pytest.mark.parametrize("a", range(1, 9))
    def test_every_cut_matches_bfs_and_oracle(self, a):
        # the last level is cut at v_n, anywhere inside a full level, on a
        # table that ends at n and on one that runs past it
        for n in range(1, 151):
            for g in (build(a, n), JacoGraph(c_series(a, 2 * n + 5), n)):
                dist = bytes([0] + bfs_distances(g)[1:])
                assert path_table(g) == PathTable(dist, psi_oracle(g)), f"a={a} n={n}"
                assert distances(g) == dist

    def test_path_table(self):
        t = path_table(build(1, 13))
        assert t.dist == distances(build(1, 13))
        assert t.psi == psi_oracle(build(1, 13))

    def test_peak_stays_near_the_result(self):
        # each level's sums are dropped once the next level has read them,
        # so no column of sums over every vertex is alive beside the result
        g = build(1, 200_000)
        tracemalloc.start()
        try:
            table = path_table(g)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table.psi) == 200_001
        assert peak <= 1.75 * retained, f"peak {peak} retained {retained}"


class TestUniqueness:
    def test_examples(self):
        report = uniqueness_check(build(1, 9))
        assert not report.mismatches
        assert report.unique[8] and report.criterion[8]  # d+ = 5 is Fibonacci
        assert not report.unique[9] and not report.criterion[9]  # d+ = 6 is not
        assert report.unique[1] and report.criterion[1]

    def test_biconditional_holds_to_2000(self):
        report = uniqueness_check(build(1, 2000))
        assert report.mismatches == ()

    def test_liz_criterion_at_higher_orders(self):
        # at a = 2 the Liz numbers are 1, 3, 7, 17: c[6] = 3 and c[16] = 7
        report = uniqueness_check(build(2, 20))
        assert [j for j in range(1, 21) if report.unique[j]] == [1, 2, 3, 6, 7, 16, 17]
        assert report.criterion == report.unique
        assert report.mismatches == ()

    @given(a=st.integers(1, 6), n=st.integers(1, 3000), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_its_definition(self, a, n, data):
        # also on a prefix of a longer table, where c runs past c[n]
        horizon = data.draw(st.integers(n, 3 * n), label="horizon")
        assert_uniqueness_by_definition(JacoGraph(c_series(a, horizon), n))

    @pytest.mark.parametrize("a", range(1, 7))
    def test_cut_inside_a_liz_run(self, a):
        # the search must stop at v_n where the run of a Liz number in c
        # goes on past it; random n rarely land there
        seq = c_series(a, 3000)
        c = seq.c
        for b in recurrence_terms(a, 1, 1, at_least=c[2999])[1:]:
            if b >= c[2999]:
                break
            for n in range(max(c.index(b) - 1, 1), c.index(b + 1) + 1):
                assert_uniqueness_by_definition(JacoGraph(seq, n))

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_reports_the_counts_it_is_given(self, a, monkeypatch):
        # the search reads psi and c, not the theorem it reports on: a
        # table with a 1 at a non-Liz vertex and a 2 at a Liz vertex gives
        # exactly those two mismatches
        n = 300
        g = build(a, n)
        psi = path_table(g).psi
        non_liz = next(j for j in range(n // 2, n + 1) if psi[j] > 1)
        at_liz = next(j for j in range(n // 3, n + 1) if psi[j] == 1)
        faulty = PathTable(path_table(g).dist, tuple(
            1 if j == non_liz else 2 if j == at_liz else p for j, p in enumerate(psi)
        ))
        monkeypatch.setattr(paths, "path_table", lambda g: faulty)
        report = uniqueness_check(g)
        assert report.mismatches == tuple(sorted((non_liz, at_liz)))
        assert report.unique[non_liz] and not report.criterion[non_liz]
        assert report.criterion[at_liz] and not report.unique[at_liz]

    def test_fibonacci_indices_have_unique_paths(self):
        psi = psi_oracle(build(1, 1000))
        f, g = 1, 2
        while f <= 1000:
            assert psi[f] == 1
            f, g = g, f + g


def assert_uniqueness_by_definition(g):
    """uniqueness_check(g) against (U) read vertex by vertex off psi and c."""
    n, c, psi = g.n, g.seq.c, path_table(g).psi
    liz = set(recurrence_terms(g.a, 1, 1, at_least=c[n]))
    report = uniqueness_check(g)
    assert report.unique == (False, *(psi[j] == 1 for j in range(1, n + 1)))
    assert report.criterion == (False, *(c[j] in liz for j in range(1, n + 1)))
    assert report.mismatches == tuple(
        j for j in range(1, n + 1) if (psi[j] == 1) != (c[j] in liz)
    )


def level_ends(g):
    """The last vertex of each distance level, read off distances: the i < n
    with dist[i+1] != dist[i], then n."""
    dist = paths.distances(g)
    return (*(i for i in range(1, g.n) if dist[i + 1] != dist[i]), g.n)


class TestDistanceRoots:
    """The distance roots, the last vertex of each level of distances, are
    the Liz numbers below n, then n: (L) of the level theorem."""

    def test_examples(self):
        assert level_ends(build(1, 10)) == (1, 2, 3, 5, 8, 10)
        assert level_ends(build(2, 10)) == (1, 3, 7, 10)
        assert level_ends(build(1, 1)) == (1,)

    def test_members_are_liz_or_n(self):
        for a in (1, 2, 3):
            ends = level_ends(build(a, 200))
            liz = [0, 1, 1]
            while liz[-1] < 200:
                liz.append(a * liz[-1] + liz[-2])
            for idx in ends:
                assert idx == 200 or idx in liz

    @pytest.mark.parametrize("a", range(1, 7))
    def test_matches_the_liz_construction(self, a):
        # the reference: Liz numbers below n, plus n.  Every n up to 500, and
        # up to 3000 every n next to a Liz number (each n costs O(n))
        liz = recurrence_terms(a, 1, 1, at_least=3000)  # B_1, B_2, ...
        near = {b + d for b in liz for d in (-1, 0, 1) if 1 <= b + d <= 3000}
        seq = c_series(a, 3000)
        for n in sorted(set(range(1, 501)) | near | {3000}):
            want = tuple(sorted({n, *(b for b in liz if b < n)}))
            assert level_ends(JacoGraph(seq, n)) == want, f"a={a} n={n}"

    def test_follows_the_distances(self, monkeypatch):
        # J_10(1) has levels 3 = {v_4, v_5} and 4 = {v_6, v_7, v_8}; moving
        # v_5 up to level 4 moves the end of level 3 from 5 to 4, and the
        # level-end claim reads it off the distances
        real = paths.distances

        def moved(g):
            dist = list(real(g))
            dist[5] = dist[6]
            return tuple(dist)

        assert analysis._claim_level_ends(1, 10) is None
        monkeypatch.setattr(paths, "distances", moved)
        assert level_ends(build(1, 10)) == (1, 2, 3, 4, 8, 10)
        assert analysis._claim_level_ends(1, 10) == "a=1 level=3 end=4 liz=5"


class TestLevelTheorem:
    """(U) and (N) at every order; (L) through the closed form far past any
    table.  B is recurrence_terms(a, 1, 1): 1, 1, a+1, ..."""

    @given(a=st.integers(1, 6), n=st.integers(1, 3000))
    @settings(max_examples=60, deadline=None)
    def test_uniqueness_and_non_repetition(self, a, n):
        g = build(a, n)
        c, psi = g.seq.c, path_table(g).psi
        liz = set(recurrence_terms(a, 1, 1, at_least=n))
        # (U): one shortest path exactly where c[j] is a Liz number
        assert [p == 1 for p in psi[1:]] == [c[j] in liz for j in range(1, n + 1)]
        assert uniqueness_check(g).mismatches == ()
        # (N): the c and psi triples are non-repetitive together
        assert ConjectureReport(c, psi).violations == 0

    @pytest.mark.parametrize("a", range(1, 7))
    def test_closed_form_at_liz_levels_to_a_googol(self, a):
        # c[B_m] = B_{m-1}, and the next level's first vertex has c one
        # further; read through c_closed, which needs no table
        liz = recurrence_terms(a, 1, 1, at_least=10**100)
        checked = 0
        for lo, hi in zip(liz[1:], liz[2:]):
            if hi > 10**100:
                break
            assert c_closed(a, hi) == lo, f"a={a} B={hi}"
            assert c_closed(a, hi + 1) == lo + 1, f"a={a} B={hi}"
            checked += 1
        assert checked >= 100


class TestConjectureScan:
    def test_report_rows_n13(self):
        report = conjecture_scan(13)
        rows = {k: (dt, pt, f, c) for k, dt, pt, f, c in report.rows}
        assert rows[11] == ((6, 7, 8), (5, 3, 1), True, True)
        assert rows[9] == ((5, 6, 6), (1, 5, 5), True, True)
        assert rows[8] == ((4, 5, 6), (2, 1, 5), True, True)
        assert report.violations == 0

    def test_rendered_format(self):
        text = render_conjecture(conjecture_scan(13))
        lines = text.splitlines()
        assert lines[0] == "k=7 dplus=(4,4,5) psi=(2,2,1) forward=OK converse=OK"
        assert lines[-1] == "SUMMARY scanned=7..12 violations=0"

    def test_scan_covers_required_range(self):
        report = conjecture_scan(100)
        assert [row[0] for row in report.rows] == list(range(7, 100))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            conjecture_scan(8)

    def test_render_peak_stays_near_the_text(self):
        # lines are joined in blocks, so no piece list or column of value
        # strings over every line is alive at once
        report = conjecture_scan(20_000)
        tracemalloc.start()
        try:
            text = render_conjecture(report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count("\n") == 20_000 - 7 + 1
        assert peak <= 2.5 * len(text), f"peak {peak} text {len(text)}"

    def test_flags_peak_near_the_flags(self):
        # each column is read through islice, not sliced, so at the peak only
        # the two flag lists and one list of steps are alive, 8 bytes a slot
        n = 200_000
        g = build(1, n)
        report = ConjectureReport(g.seq.c, path_table(g).psi)
        tracemalloc.start()
        try:
            flags = report._flags
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(map(len, flags)) == [n - 7, n - 7]
        assert peak <= 3.5 * 8 * n, f"peak {peak} n {n}"


def reference_conjecture(n_max, dplus, psi):
    """Rows, violation count and text of a scan, one row at a time."""
    rows, lines = [], []
    for k in range(7, n_max):
        dtriple = (dplus[k - 1], dplus[k], dplus[k + 1])
        ptriple = (psi[k - 1], psi[k], psi[k + 1])
        d_nr = dtriple[0] != dtriple[1] and dtriple[1] != dtriple[2]
        p_nr = ptriple[0] != ptriple[1] and ptriple[1] != ptriple[2]
        forward = p_nr if d_nr else True
        converse = d_nr if p_nr else True
        rows.append((k, dtriple, ptriple, forward, converse))
        lines.append(
            "k={} dplus=({},{},{}) psi=({},{},{}) forward={} converse={}".format(
                k, *dtriple, *ptriple,
                "OK" if forward else "VIOLATION",
                "OK" if converse else "VIOLATION",
            )
        )
    violations = sum((not fwd) + (not conv) for *_, fwd, conv in rows)
    lines.append(f"SUMMARY scanned=7..{n_max - 1} violations={violations}")
    lines.append("")
    return tuple(rows), violations, "\n".join(lines)


class TestSyntheticConjectureReport:
    """The real scan finds no violation, so synthetic columns drive the
    VIOLATION branches: every pair of non-repetition flags occurs."""

    def test_fixed_columns_hit_every_flag_pair(self):
        # flags (dplus non-repetitive, psi non-repetitive) for k = 7..12:
        # neither; psi only; both, with x[k-1] == x[k+1]; psi only twice;
        # dplus only
        dplus = (0, 0, 0, 0, 0, 0, 0, 2, 2, 1, 2, 2, 1, 2)
        psi = (0, 0, 0, 0, 0, 0, 3, 3, 2, 1, 2, 1, 2, 2)
        report = ConjectureReport(dplus, psi)
        rows, violations, text = reference_conjecture(13, dplus, psi)
        assert report.rows == rows
        assert [row[3:] for row in rows] == [
            (True, True), (True, False), (True, True), (True, False), (True, False),
            (False, True),
        ]
        assert report.violations == violations == 4
        assert render_conjecture(report) == text
        lines = text.splitlines()
        assert lines[1] == "k=8 dplus=(2,2,1) psi=(3,2,1) forward=OK converse=VIOLATION"
        assert lines[5] == "k=12 dplus=(2,1,2) psi=(1,2,2) forward=VIOLATION converse=OK"
        assert lines[6] == "SUMMARY scanned=7..12 violations=4"

    @pytest.mark.parametrize("seed,n_max", [
        *(pytest.param(seed, None, id=str(seed)) for seed in range(8)),
        # n_max - 7 lines, 2047-2049 and 4095-4098: around the edges of
        # the first and second 2048-line blocks
        *(
            pytest.param(n_max, n_max, id=f"n_max={n_max}")
            for n_max in (2054, 2055, 2056, 4102, 4103, 4104, 4105)
        ),
    ])
    def test_random_columns_match_the_row_reference(self, seed, n_max):
        rng = random.Random(seed)
        if n_max is None:
            n_max = rng.randrange(9, 300)
        dplus = tuple(rng.randrange(3) for _ in range(n_max + 1))
        psi = tuple(rng.randrange(3) * 10**rng.randrange(30) for _ in range(n_max + 1))
        report = ConjectureReport(dplus, psi)
        rows, violations, text = reference_conjecture(n_max, dplus, psi)
        assert report.rows == rows
        assert report.violations == violations
        assert render_conjecture(report) == text
        assert {row[3:] for row in rows} == {(True, True), (True, False), (False, True)}

    def test_real_scan_matches_the_row_reference(self):
        report = conjecture_scan(3000)
        g = build(1, 3000)
        rows, violations, text = reference_conjecture(3000, g.seq.c, psi_oracle(g))
        assert report.rows == rows
        assert report.violations == violations == 0
        assert render_conjecture(report) == text
