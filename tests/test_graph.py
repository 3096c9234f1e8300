import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jaco.graph import (
    JacoGraph,
    JaconianInfo,
    arcs,
    build,
    degree_profile,
    hope_is_complete,
    in_neighbors,
    jaconian,
    out_neighbors,
    prefix_jaconians,
)
from jaco.oracles import jaconian_scan, naive_build
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
            naive_arcs, naive_din = naive_build(a, n)
            g = build(a, n)
            assert set(arcs(g)) == naive_arcs
            profile = degree_profile(g)
            assert list(profile.d_in) == naive_din
            naive_dout = [0] * (n + 1)
            for i, _ in naive_arcs:
                naive_dout[i] += 1
            assert list(profile.d_out_finite) == naive_dout


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

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5, 6])
    def test_matches_degree_scan(self, a):
        seq = c_series(a, 600)
        for n in range(1, 601):
            g = JacoGraph(a, n, seq)
            assert jaconian(g) == jaconian_scan(g), f"a={a} n={n}"

    @pytest.mark.parametrize("a", [1, 2, 3, 5])
    def test_complete_prefix_regime(self, a):
        for m in range(1, a + 2):
            info = jaconian(build(a, m))
            assert info.delta == m - 1
            assert info.jaconian_set == tuple(range(1, m + 1))


class TestPrefixJaconians:
    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5, 6])
    def test_matches_full_scan_at_every_prefix(self, a):
        seq = c_series(a, 2000)
        for m, info in enumerate(prefix_jaconians(seq, 2000), 1):
            assert info == jaconian_scan(JacoGraph(a, m, seq)), f"a={a} m={m}"
        assert m == 2000

    @given(a=st.integers(1, 40), n=st.integers(1, 3000), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_full_scan_property(self, a, n, data):
        seq = c_series(a, n)
        probes = {n, data.draw(st.integers(1, n)), data.draw(st.integers(1, min(n, 3 * a)))}
        for m, info in enumerate(prefix_jaconians(seq, n), 1):
            if m in probes:
                assert info == jaconian_scan(JacoGraph(a, m, seq)), f"a={a} m={m}"

    def test_beyond_horizon_rejected(self):
        with pytest.raises(ValueError):
            next(prefix_jaconians(c_series(2, 10), 11))


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
        # v_5, so the arc v_2 -> v_6 is missing; v_3 already reaches v_7
        g = JacoGraph(2, 6, SequenceTable(2, 6, (0,) + (1,) * 6))
        info = JaconianInfo(4, (1,), 1, range(2, 7))
        assert hope_is_complete(g, info) == (False, (2, 6))
