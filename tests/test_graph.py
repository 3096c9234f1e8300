import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jaco.analysis import edge_count_theorem
from jaco.export import to_csv, to_dot, to_json
from jaco.graph import (
    JacoGraph,
    arcs,
    build,
    degree_profile,
    edge_count_direct,
    hope_is_complete,
    in_neighbors,
    jaconian,
    out_neighbors,
)
from jaco.oracles import jaconian_scan, naive_build
from jaco.paths import distances, path_table
from jaco.sequences import SequenceTable, c_series


class TestBuild:
    def test_small_arc_sets(self):
        assert set(arcs(build(1, 3))) == {(1, 2), (2, 3)}
        assert set(arcs(build(2, 4))) == {(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)}

    def test_complete_prefix_k4(self):
        # J_4(3) is the complete graph on four vertices
        want = {(i, j) for i in range(1, 5) for j in range(i + 1, 5)}
        assert set(arcs(build(3, 4))) == want

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            build(0, 5)
        with pytest.raises(ValueError):
            build(2, 0)

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_matches_naive_builder(self, a):
        for n in (1, 2, 7, 40, 150):
            tails, heads = naive_build(a, n)
            assert len(tails) == len(heads) == n + 1
            # heads is the transpose of tails, and every list ascends
            assert sorted((i, j) for j, t in enumerate(tails) for i in t) == [
                (i, j) for i, h in enumerate(heads) for j in h
            ]
            assert all(nbrs == sorted(set(nbrs)) for nbrs in tails + heads)
            g = build(a, n)
            assert list(arcs(g)) == [(i, j) for i, h in enumerate(heads) for j in h]
            profile = degree_profile(g)
            assert list(profile.d_in) == list(map(len, tails))
            assert list(profile.d_out_finite) == list(map(len, heads))


class TestNeighborhoods:
    def test_out_examples(self):
        assert list(out_neighbors(build(1, 8), 5)) == [6, 7, 8]
        assert list(out_neighbors(build(1, 8), 8)) == []
        assert list(out_neighbors(build(2, 10), 4)) == [5, 6, 7, 8, 9, 10]

    def test_in_examples(self):
        assert list(in_neighbors(build(1, 8), 8)) == [5, 6, 7]
        assert list(in_neighbors(build(1, 8), 1)) == []
        assert list(in_neighbors(build(3, 5), 1)) == []
        assert list(in_neighbors(build(2, 8), 4)) == [2, 3]

    def test_index_out_of_range(self):
        g = build(1, 5)
        for bad in (0, 6, -1):
            with pytest.raises(IndexError):
                out_neighbors(g, bad)
            with pytest.raises(IndexError):
                in_neighbors(g, bad)

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_in_neighbors_stable_across_truncations(self, a):
        big = build(a, 120)
        for n in (5, 30, 80):
            small = build(a, n)
            for j in range(1, n + 1):
                assert in_neighbors(small, j) == in_neighbors(big, j)


class TestDegreeProfile:
    def test_examples(self):
        assert list(degree_profile(build(1, 8)).d_total[1:]) == [1, 2, 3, 4, 5, 4, 4, 3]
        assert list(degree_profile(build(2, 4)).d_total[1:]) == [2, 3, 3, 2]
        assert list(degree_profile(build(1, 1)).d_total[1:]) == [0]

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_degree_bounds(self, a):
        profile = degree_profile(build(a, 200))
        d = profile.d_total
        assert all(d[i] <= a * i for i in range(1, 201))
        assert all(abs(d[i] - d[i - 1]) <= a for i in range(2, 201))
        assert min(d[1:]) <= a

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_saturated_vertices(self, a):
        # vertices whose reach stays inside the graph have full degree a*i
        g = build(a, 150)
        profile = degree_profile(g)
        for i in range(1, 151):
            if g.seq.reach[i] <= g.n:
                assert profile.d_total[i] == a * i


class TestJaconian:
    def test_examples(self):
        info = jaconian(build(1, 8))
        assert (info.delta, info.jaconian_set, info.prime_index) == (5, (5,), 5)
        assert list(info.hope_range) == [6, 7, 8]

        info = jaconian(build(1, 7))
        assert (info.delta, info.jaconian_set, info.prime_index) == (4, (4, 5), 4)

        info = jaconian(build(2, 3))
        assert (info.delta, info.jaconian_set) == (2, (1, 2, 3))

    def test_single_vertex(self):
        info = jaconian(build(1, 1))
        assert (info.delta, info.jaconian_set, info.prime_index) == (0, (1,), 1)
        assert len(info.hope_range) == 0

    def test_tie_below_lowest_in_neighbor(self):
        # J_4(1) is the path 1-2-3-4: both v_2 and v_3 attain the maximum
        # degree, so the prime vertex is v_2 even though c[4] = 3
        info = jaconian(build(1, 4))
        assert info.jaconian_set == (2, 3)
        assert info.prime_index == 2

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_lowest_in_neighbor_attains_delta(self, a):
        for n in range(2, 150):
            g = build(a, n)
            info = jaconian(g)
            assert g.seq.c[n] in info.jaconian_set
            assert info.prime_index in (g.seq.c[n] - 1, g.seq.c[n])

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_delta_monotone_with_unit_jumps(self, a):
        prev = 0
        for n in range(1, 200):
            delta = jaconian(build(a, n)).delta
            assert delta in (prev, prev + 1)
            prev = delta

    @pytest.mark.parametrize("a", [1, 2, 3, 5])
    def test_complete_prefix_regime(self, a):
        for m in range(1, a + 2):
            info = jaconian(build(a, m))
            assert info.delta == m - 1
            assert info.jaconian_set == tuple(range(1, m + 1))


class TestPrefixJaconians:
    """The closed-form Jaconian of every prefix J_m(a) of one table against
    the per-vertex degree scan."""

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5, 6])
    def test_matches_full_scan_at_every_prefix(self, a):
        seq = c_series(a, 2000)
        for m in range(1, 2001):
            g = JacoGraph(seq, m)
            assert jaconian(g) == jaconian_scan(g), f"a={a} m={m}"

    @given(a=st.integers(1, 40), n=st.integers(1, 3000), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_full_scan_property(self, a, n, data):
        seq = c_series(a, n)
        probes = {n, data.draw(st.integers(1, n)), data.draw(st.integers(1, min(n, 3 * a)))}
        for m in probes:
            g = JacoGraph(seq, m)
            assert jaconian(g) == jaconian_scan(g), f"a={a} m={m}"


class TestPrefixView:
    """A graph is the prefix m of a table that may run further: every
    result must read the cut at g.n, never the table's length."""

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_matches_a_fresh_build(self, a):
        size = 200
        seq = c_series(a, size)
        for m in range(1, size + 1):
            view, fresh = JacoGraph(seq, m), build(a, m)
            for fn in (degree_profile, jaconian, edge_count_direct, edge_count_theorem,
                       hope_is_complete, distances, path_table):
                assert fn(view) == fn(fresh), f"{fn.__name__} a={a} m={m}"
            assert list(arcs(view)) == list(arcs(fresh)), f"arcs a={a} m={m}"
        for m in (1, 2, a + 1, size // 2, size):
            view, fresh = JacoGraph(seq, m), build(a, m)
            for render in (to_dot, to_json, to_csv):
                assert render(view) == render(fresh), f"{render.__name__} a={a} m={m}"

    @pytest.mark.parametrize("a, horizon, m", [(2, 10, 11), (1, 5, 30), (2, 10, 0)])
    def test_view_outside_its_table_is_refused(self, a, horizon, m):
        # a view must lie within its table; it is refused when it is built,
        # not when a query first reads past the table
        seq = c_series(a, horizon)
        with pytest.raises(ValueError):
            JacoGraph(seq, m)


class TestHope:
    def test_examples(self):
        assert hope_is_complete(build(1, 8)) == (True, None)
        assert hope_is_complete(build(1, 1)) == (True, None)
        assert hope_is_complete(build(2, 4)) == (True, None)

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_always_complete(self, a):
        for n in range(1, 200):
            ok, witness = hope_is_complete(build(a, n))
            assert ok and witness is None

    def test_reports_missing_pair(self):
        # a hand-made order-2 table with c = 1 throughout: v_2 reaches only
        # v_5, so the arc v_2 -> v_6 is missing; v_3 already reaches v_7.
        # The closed form puts the Hope range at 2..6
        g = JacoGraph(SequenceTable(2, (0,) + (1,) * 6), 6)
        assert jaconian(g).hope_range == range(2, 7)
        assert hope_is_complete(g) == (False, (2, 6))
