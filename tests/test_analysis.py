import tracemalloc
from bisect import insort
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jaco import analysis, graph, oracles, paths, sequences
from jaco.analysis import (
    TheoremViolationError,
    edge_count_recursive,
    edge_count_theorem,
    milestone_delta,
    render_report,
    verify_suite,
)
from jaco.graph import build, edge_count_direct
from jaco.oracles import naive_build, out_degree_sum

GOLDEN = Path(__file__).parent / "golden"


def _toggle_arc(built, i, j, in_heads=True):
    """Drop the arc (i, j) from naive_build's lists, or add it in order;
    with in_heads=False only tails[j] changes."""
    tails, heads = built
    for nbrs, v in ((tails[j], i), (heads[i], j))[: 1 + in_heads]:
        if v in nbrs:
            nbrs.remove(v)
        else:
            insort(nbrs, v)
    return tails, heads


def _swapped(stream, k):
    """The arc stream with its k-th and (k+1)-th arcs (from 1) swapped."""
    arcs = list(stream)
    arcs[k - 1], arcs[k] = arcs[k], arcs[k - 1]
    return iter(arcs)


def _bumped(seq, i, by=1):
    """The sequence table with c[i] larger by by."""
    c = list(seq.c)
    c[i] += by
    return sequences.SequenceTable(seq.a, tuple(c))


def _exhausted(a):
    """A milestone search that finds no witness."""
    raise TheoremViolationError(f"no witness at a={a}")


def _repeated_rep(real):
    """enumerate_zeck_reps with the string of 10 listed twice at order 2."""
    def reps(a, max_value):
        found = real(a, max_value)
        if a == 2:
            found[10] = found[10] * 2
        return found
    return reps


class TestEdgeCounts:
    def test_direct_examples(self):
        assert edge_count_direct(build(1, 8)) == 13
        assert edge_count_direct(build(1, 1)) == 0
        assert edge_count_direct(build(2, 5)) == 8

    def test_direct_matches_naive_enumeration(self):
        for a in (1, 2, 3):
            for n in (1, 2, 9, 60):
                tails, heads = naive_build(a, n)
                assert edge_count_direct(build(a, n)) == sum(map(len, tails))
                assert edge_count_direct(build(a, n)) == sum(map(len, heads))

    def test_theorem_examples(self):
        assert edge_count_theorem(build(1, 8)) == 13
        assert edge_count_theorem(build(2, 4)) == 5
        assert edge_count_theorem(build(1, 2)) == 1

    def test_recursive_examples(self):
        assert edge_count_recursive(1, 8) == [0, 1, 2, 3, 5, 7, 10, 13]
        assert edge_count_recursive(2, 5) == [0, 1, 3, 5, 8]
        assert edge_count_recursive(3, 4) == [0, 1, 3, 6]

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_triple_agreement(self, a):
        recursive = edge_count_recursive(a, 400)
        for n in range(1, 401):
            g = build(a, n)
            direct = edge_count_direct(g)
            assert direct == edge_count_theorem(g) == recursive[n - 1]

    @given(a=st.integers(1, 40), n=st.integers(1, 3000), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_out_arcs_match_literal_sum(self, a, n, data):
        g = build(a, n)
        k = data.draw(st.integers(0, n))
        assert graph._out_arcs(g, k) == out_degree_sum(g, k), f"a={a} n={n} k={k}"
        assert edge_count_direct(g) == out_degree_sum(g, n), f"a={a} n={n}"


class TestCompletePrefixCount:
    # J_m(a) is complete for m <= a + 1, so it has m(m-1)/2 arcs
    def test_examples(self):
        assert edge_count_direct(build(2, 3)) == 3
        assert edge_count_direct(build(5, 1)) == 0
        assert edge_count_direct(build(1, 2)) == 1

    @pytest.mark.parametrize("a", list(range(1, 11)))
    def test_matches_graph(self, a):
        for m in range(1, a + 2):
            assert edge_count_direct(build(a, m)) == m * (m - 1) // 2


class TestMilestone:
    @pytest.mark.parametrize("a,n_star", [(1, 3), (2, 7), (3, 13)])
    def test_examples(self, a, n_star):
        assert milestone_delta(a) == n_star

    @pytest.mark.parametrize("a", list(range(1, 21)))
    def test_prediction(self, a):
        assert milestone_delta(a) == a * (a + 1) + 1


class TestVerifySuite:
    def test_all_pass_default_grid(self):
        report = verify_suite(1, 3, 200)
        assert report.passed
        assert len(report.claims) >= 15

    def test_degenerate_grid(self):
        report = verify_suite(1, 1, 1)
        assert report.passed

    @pytest.mark.parametrize(
        "a_min, a_max, n",
        [
            (1, 3, 200),  # the CLI default
            (2, 4, 150),  # a grid without order 1
            (1, 1, 2100),  # past every n cap
            (20, 22, 30),  # past the milestone a cap
        ],
    )
    def test_report_matches_golden(self, a_min, a_max, n):
        golden = GOLDEN / f"verify_a{a_min}-{a_max}_n{n}.txt"
        assert render_report(verify_suite(a_min, a_max, n)) == golden.read_text()

    def test_report_format(self):
        text = render_report(verify_suite(1, 1, 30))
        lines = text.splitlines()
        assert lines[-1] == "OVERALL PASS"
        for line in lines[:-1]:
            assert line.startswith("CLAIM ")
            assert " PASS " in line or " FAIL " in line
            assert "checked=" in line
        ids = [line.split()[1] for line in lines[:-1]]
        assert len(ids) == len(set(ids))  # every claim exactly once

    @pytest.mark.parametrize(
        "target, warp, grid, failures",
        [
            pytest.param(
                (sequences, "c_closed"),
                lambda real: lambda a, n: real(a, n) + ((a, n) == (2, 17)),
                (2, 2, 40),
                {"seq.closed_form": "a=2 n=17"},
                id="closed_form",
            ),
            pytest.param(
                (sequences, "c_beatty"),
                lambda real: lambda a, n: real(a, n) + ((a, n) == (2, 17)),
                (1, 3, 40),
                {"seq.beatty_form": "a=2 n=17"},
                id="beatty_form",
            ),
            pytest.param(
                (graph, "in_neighbors"),
                lambda real: lambda g, j: real(g, j)[1:] if j == 150 else real(g, j),
                (1, 3, 200),
                # the claim reads the tails of every vertex, not only of v_{c[m]}
                {"graph.in_degree_stability": "a=1 j=150"},
                id="in_degree_stability",
            ),
            pytest.param(
                (paths, "uniqueness_check"),
                lambda real: lambda g: real(g)._replace(unique=tuple(
                    not u if j == 100 else u for j, u in enumerate(real(g).unique)
                )),
                (1, 3, 200),
                # the report's own mismatches stay empty, so only the
                # recomputed criterion shows the flipped column
                {"paths.uniqueness_biconditional": "a=1 report unique[100]=True"},
                id="uniqueness_report_not_trusted",
            ),
            pytest.param(
                (paths, "psi_oracle"),
                lambda real: lambda g: tuple(
                    p + (g.n == 40 and j == 8) for j, p in enumerate(real(g))
                ),
                (1, 1, 40),
                {
                    "paths.psi_recursion_matches_dp": "a=1 j=8 recursion=1 dp=2",
                    "paths.psi_fast_matches_dp": "a=1 j=8",
                },
                id="psi_oracle",
            ),
            pytest.param(
                (paths, "psi_oracle"),
                lambda real: lambda g: (7, *real(g)[1:]),
                (1, 1, 40),
                # j = 0 is no vertex, but both claims compare the columns from 0
                {
                    "paths.psi_recursion_matches_dp": "a=1 j=0 recursion=0 dp=7",
                    "paths.psi_fast_matches_dp": "a=1 j=0",
                },
                id="psi_oracle_at_0",
            ),
            pytest.param(
                (oracles, "bfs_distances"),
                lambda real: lambda g: real(g)[:-1] if g.n == 40 else real(g),
                (1, 1, 40),
                {"paths.distance_recursion_matches_bfs": "a=1 i=40 8!=None"},
                id="bfs_distances_short",
            ),
            pytest.param(
                (paths, "path_table"),
                lambda real: lambda g: real(g)._replace(psi=tuple(
                    p + (g.n == 40 and j == 8) for j, p in enumerate(real(g).psi)
                )),
                (1, 1, 40),
                {
                    # psi[8] = 2 at the Liz (Fibonacci) index 8, so v_8 has two
                    # paths; the psi triple at k = 8 becomes (2, 2, 5)
                    "paths.psi_fast_matches_dp": "a=1 j=8",
                    "paths.uniqueness_biconditional": "a=1 j=8 unique=False liz=True",
                    "paths.level_ends_are_liz": "a=1 liz=8 psi=2",
                    "paths.non_repetition_any_order": "a=1 k=8",
                },
                id="psi_one_at_fib",
            ),
            pytest.param(
                (paths, "distances"),
                lambda real: lambda g: tuple(
                    d + (g.n == 40 and j == 5) for j, d in enumerate(real(g))
                ),
                (1, 1, 40),
                {
                    # v_5 moves from level 3 into level 4, so level 3 ends at
                    # 4, not at the Liz number 5; the path-count DP reads the
                    # distances too, and v_6 loses its path through v_5
                    "paths.distance_recursion_matches_bfs": "a=1 i=5 4!=3",
                    "paths.psi_recursion_matches_dp": "a=1 j=6 recursion=2 dp=1",
                    "paths.psi_fast_matches_dp": "a=1 j=6",
                    "paths.level_ends_are_liz": "a=1 level=3 end=4 liz=5",
                },
                id="shifted_level_end",
            ),
            pytest.param(
                (graph, "_jaconian_at"),
                lambda real: lambda seq, m: (
                    (real(seq, m)[0] + 1, *real(seq, m)[1:]) if m == 20 else real(seq, m)
                ),
                (1, 1, 40),
                {
                    "graph.monotone_delta": "a=1 n=20 delta 11->13",
                    "graph.lowest_in_neighbor_attains_delta": "a=1 n=20",
                    # the recurrence reads J_20's info to grow J_20 into J_21
                    "analysis.edge_count_triple_agreement": (
                        "a=1 n=21 direct=86 theorem=86 recursive=87"
                    ),
                },
                id="prefix_sweep_delta",
            ),
            pytest.param(
                (oracles, "jaconian_scan"),
                lambda real: lambda g: real(g)._replace(delta=real(g).delta + 1),
                (1, 1, 40),
                {"graph.monotone_delta": "a=1 n=40 sweep differs from full scan"},
                id="jaconian_scan",
            ),
            pytest.param(
                (graph, "jaconian"),
                lambda real: lambda g: (
                    real(g)._replace(hope_range=range(1, g.n + 1))
                    if g.n == 40 else real(g)
                ),
                (1, 1, 40),
                # hope_is_complete reads the prime index from the closed
                # form, so only the check of J_40's record against the full
                # degree scan sees the planted range
                {"graph.monotone_delta": "a=1 n=40 sweep differs from full scan"},
                id="hope_range",
            ),
            pytest.param(
                (graph, "edge_count_direct"),
                lambda real: lambda g: real(g) + (g.n == 40),
                (1, 1, 40),
                {
                    # the arc sets agree, so only the counts can be named
                    "graph.arc_relation_matches_naive_builder": "a=1 edges=309 naive=308",
                    "analysis.edge_count_triple_agreement": (
                        "a=1 n=40 direct=309 theorem=308 recursive=308"
                    ),
                },
                id="edge_count_direct",
            ),
            pytest.param(
                (oracles, "naive_build"),
                lambda real: lambda a, n: _toggle_arc(real(a, n), 8, 11),
                (1, 1, 40),
                {
                    "graph.arc_relation_matches_naive_builder": "a=1 arc=(8, 11)",
                    # heads[8] becomes 9, 10, 12, 13
                    "graph.neighborhood_contiguity": "a=1 vertex=8",
                    # and tails[11] loses v_8
                    "graph.in_degree_stability": "a=1 j=11",
                },
                id="naive_build_drops_arc",
            ),
            pytest.param(
                (oracles, "naive_build"),
                lambda real: lambda a, n: (
                    _toggle_arc(real(a, n), 8, 11) if a == 2 else real(a, n)
                ),
                (1, 3, 40),
                # orders 1 and 3 pass; the claims reading the builder fail at 2
                {
                    "graph.arc_relation_matches_naive_builder": "a=2 arc=(8, 11)",
                    "graph.neighborhood_contiguity": "a=2 vertex=8",
                    "graph.in_degree_stability": "a=2 j=11",
                },
                id="naive_build_drops_arc_at_order_2",
            ),
            pytest.param(
                (oracles, "naive_build"),
                lambda real: lambda a, n: _toggle_arc(real(a, n), 1, 40),
                (1, 1, 40),
                {
                    "graph.arc_relation_matches_naive_builder": "a=1 arc=(1, 40)",
                    # heads[1] becomes 2, 40
                    "graph.neighborhood_contiguity": "a=1 vertex=1",
                    "graph.in_degree_stability": "a=1 j=40",
                },
                id="naive_build_adds_arc",
            ),
            pytest.param(
                (oracles, "naive_build"),
                lambda real: lambda a, n: _toggle_arc(real(a, n), 9, 11, in_heads=False),
                (1, 1, 40),
                # the arc relation reads heads only; tails[11] becomes 7, 8, 10
                {
                    "graph.neighborhood_contiguity": "a=1 vertex=11",
                    "graph.in_degree_stability": "a=1 j=11",
                },
                id="naive_build_tails_gap",
            ),
            pytest.param(
                (graph, "arcs"),
                lambda real: lambda g: iter(list(real(g))[:-1]) if g.n == 40 else real(g),
                (1, 1, 40),
                # the counts agree, so only the lost last arc can show it
                {"graph.arc_relation_matches_naive_builder": "a=1 arc=(39, 40)"},
                id="arcs_loses_last",
            ),
            pytest.param(
                (graph, "arcs"),
                lambda real: lambda g: chain(real(g), [(1, 40)]) if g.n == 40 else real(g),
                (1, 1, 40),
                # the counts agree, so only the stream's extra arc can show it
                {"graph.arc_relation_matches_naive_builder": "a=1 arc=(1, 40)"},
                id="arcs_gains_arc",
            ),
            pytest.param(
                (graph, "arcs"),
                lambda real: lambda g: chain(real(g), [(39, 40)]) if g.n == 40 else real(g),
                (1, 1, 40),
                # the arc sets and the counts agree: only the position where
                # the streams part shows the repeated arc
                {
                    "graph.arc_relation_matches_naive_builder": (
                        "a=1 position=309 arcs=(39, 40) naive=None"
                    ),
                },
                id="arcs_repeats_last",
            ),
            pytest.param(
                (graph, "arcs"),
                lambda real: lambda g: _swapped(real(g), 11) if g.n == 40 else real(g),
                (1, 1, 40),
                # the 11th and 12th arcs are (6, 7) and (6, 8)
                {
                    "graph.arc_relation_matches_naive_builder": (
                        "a=1 position=11 arcs=(6, 8) naive=(6, 7)"
                    ),
                },
                id="arcs_out_of_order",
            ),
            pytest.param(
                (analysis, "edge_count_recursive"),
                lambda real: lambda a, n: [e + (i == 20) for i, e in enumerate(real(a, n))],
                (1, 1, 40),
                # the triple claim reads the public recurrence, not a copy of it
                {
                    "analysis.edge_count_triple_agreement": (
                        "a=1 n=21 direct=86 theorem=86 recursive=87"
                    ),
                },
                id="edge_count_recursive",
            ),
            pytest.param(
                (oracles, "c_series_bruteforce"),
                lambda real: lambda a, n: [
                    v + (a == 1 and i == 17) for i, v in enumerate(real(a, n))
                ],
                (1, 1, 40),
                {"seq.matches_bruteforce_definition": "a=1 n=17"},
                id="c_series_bruteforce",
            ),
            pytest.param(
                (oracles, "c_series_bruteforce"),
                lambda real: lambda a, n: real(a, n)[:-1] if a == 2 else real(a, n),
                (1, 3, 40),
                # the shorter route parts from c where it ends
                {"seq.matches_bruteforce_definition": "a=2 n=40"},
                id="c_series_bruteforce_short",
            ),
            # each route below is planted once, on its defining module, and
            # every claim that reads it through a graph or a table sees it
            pytest.param(
                (graph, "jaconian"),
                lambda real: lambda g: (
                    real(g)._replace(delta=real(g).delta + 1) if (g.a, g.n) == (2, 40) else real(g)
                ),
                (1, 3, 40),
                {"graph.monotone_delta": "a=2 n=40 sweep differs from full scan"},
                id="jaconian_delta",
            ),
            pytest.param(
                (graph, "out_neighbors"),
                lambda real: lambda g, i: real(g, i)[:-1] if (g.a, i) == (2, 10) else real(g, i),
                (1, 3, 40),
                {
                    # v_10 is the lowest in-neighbor of v_23
                    "graph.lowest_in_neighbor_attains_delta": "a=2 n=23",
                    "analysis.edge_count_triple_agreement": "a=2 n=40 direct=472 literal=471",
                },
                id="out_neighbors",
            ),
            pytest.param(
                (graph, "degree_profile"),
                lambda real: lambda g: (
                    real(g)._replace(d_total=tuple(
                        d + (j == 10) for j, d in enumerate(real(g).d_total)
                    )) if (g.a, g.n) == (2, 40) else real(g)
                ),
                (1, 3, 40),
                {"graph.degree_step_bound": "a=2 i=10"},
                id="degree_profile",
            ),
            pytest.param(
                (graph, "edge_count_direct"),
                lambda real: lambda g: real(g) + ((g.a, g.n) == (3, 40)),
                (1, 3, 40),
                {
                    "graph.arc_relation_matches_naive_builder": "a=3 edges=562 naive=561",
                    "analysis.edge_count_triple_agreement": (
                        "a=3 n=40 direct=562 theorem=561 recursive=561"
                    ),
                },
                id="edge_count_direct_at_order_3",
            ),
            pytest.param(
                (graph, "arcs"),
                lambda real: lambda g: (
                    iter(list(real(g))[:-1]) if (g.a, g.n) == (2, 40) else real(g)
                ),
                (1, 3, 40),
                {"graph.arc_relation_matches_naive_builder": "a=2 arc=(39, 40)"},
                id="arcs_loses_last_at_order_2",
            ),
            pytest.param(
                (graph, "hope_is_complete"),
                lambda real: lambda g: (False, (0, 0)) if (g.a, g.n) == (2, 20) else real(g),
                (1, 3, 40),
                {"graph.hope_complete": "a=2 n=20 missing=(0, 0)"},
                id="hope_is_complete",
            ),
            pytest.param(
                (graph, "build"),
                lambda real: lambda a, n: (
                    graph.JacoGraph(_bumped(real(a, n).seq, 17), n) if a == 2 and n >= 17
                    else real(a, n)
                ),
                (1, 3, 40),
                # the claims that read c_series itself pass
                {
                    "graph.in_degree_stability": "a=2 j=17",
                    "paths.psi_recursion_matches_dp": "a=2 j=40 recursion=1 dp=0",
                    "paths.psi_fast_matches_dp": "a=2 j=17",
                    "paths.uniqueness_biconditional": "a=2 j=40 unique=False liz=True",
                    "paths.level_ends_are_liz": "a=2 liz=17 c=8",
                    "paths.non_repetition_any_order": "a=2 k=17",
                },
                id="build",
            ),
            pytest.param(
                (sequences, "c_series"),
                lambda real: lambda a, horizon: (
                    _bumped(real(a, horizon), 17) if a == 2 and horizon >= 17
                    else real(a, horizon)
                ),
                (1, 3, 40),
                # the claims that read c_series and those that read a built graph
                {
                    "seq.degree_identity": "a=2 n=7",
                    "seq.matches_bruteforce_definition": "a=2 n=17",
                    "seq.closed_form": "a=2 n=17",
                    "seq.fixpoint": "a=2 k=7 b=0",
                    "seq.beatty_form": "a=2 n=17",
                    "graph.in_degree_stability": "a=2 j=17",
                    "graph.lowest_in_neighbor_attains_delta": "a=2 n=17",
                    "paths.psi_recursion_matches_dp": "a=2 j=40 recursion=1 dp=0",
                    "paths.psi_fast_matches_dp": "a=2 j=17",
                    "paths.uniqueness_biconditional": "a=2 j=40 unique=False liz=True",
                    "paths.level_ends_are_liz": "a=2 liz=17 c=8",
                    "paths.non_repetition_any_order": "a=2 k=17",
                },
                id="c_series",
            ),
            # with the cases below, every counterexample a claim can return
            # is returned by some planted fault
            pytest.param(
                (sequences, "c_series"),
                lambda real: lambda a, horizon: (
                    _bumped(real(a, horizon), 0) if horizon == 1 else real(a, horizon)
                ),
                (1, 3, 40),
                # the complete prefixes build J_1 on such a table and pass
                {"seq.seed_values": "a=1 c[0]=1 c[1]=1"},
                id="seed_values",
            ),
            pytest.param(
                (sequences, "c_series"),
                lambda real: lambda a, horizon: (
                    real(a, horizon)._replace(c=(0, 2)) if horizon == 1 else real(a, horizon)
                ),
                (1, 3, 40),
                # J_1 on such a table reads c[2] past its end, and the summatory
                # c meets c[1] > 1: the two complete-prefix claims raise
                {
                    "seq.seed_values": "a=1 c[0]=0 c[1]=2",
                    "graph.complete_prefix": "a=1 raised IndexError",
                    "analysis.complete_prefix_count": "a=1 raised ValueError",
                },
                id="seed_values_raise",
            ),
            pytest.param(
                (sequences, "c_series"),
                lambda real: lambda a, horizon: (
                    _bumped(real(a, horizon), 17, by=2) if a == 2 and horizon >= 17
                    else real(a, horizon)
                ),
                (1, 3, 40),
                # c steps by 2 into n = 17: besides the claims the one-step
                # bump above fails, the step, the delta sweep and the
                # recurrence see it
                {
                    "seq.degree_identity": "a=2 n=7",
                    "seq.monotone_step": "a=2 n=16",
                    "seq.matches_bruteforce_definition": "a=2 n=17",
                    "seq.closed_form": "a=2 n=17",
                    "seq.fixpoint": "a=2 k=7 b=0",
                    "seq.beatty_form": "a=2 n=17",
                    "graph.in_degree_stability": "a=2 j=17",
                    "graph.monotone_delta": "a=2 n=17 delta 13->16",
                    "graph.lowest_in_neighbor_attains_delta": "a=2 n=17",
                    "analysis.edge_count_triple_agreement": (
                        "a=2 n=17 direct=89 theorem=89 recursive=86"
                    ),
                    "paths.psi_recursion_matches_dp": "a=2 j=40 recursion=1 dp=0",
                    "paths.psi_fast_matches_dp": "a=2 j=17",
                    "paths.uniqueness_biconditional": "a=2 j=40 unique=False liz=True",
                    "paths.level_ends_are_liz": "a=2 liz=17 c=9",
                },
                id="c_series_steps_by_two",
            ),
            pytest.param(
                (oracles, "enumerate_zeck_reps"),
                _repeated_rep,
                (1, 3, 40),
                {"seq.zeck_uniqueness": "a=2 n=10 reps=2"},
                id="zeck_reps_repeat_a_string",
            ),
            pytest.param(
                (graph, "arcs"),
                lambda real: lambda g: (
                    iter(list(real(g))[:-1]) if (g.a, g.n) == (2, 3) else real(g)
                ),
                (1, 3, 40),
                # only the complete-prefix claim builds J_3(2)
                {"graph.complete_prefix": "a=2 m=3 not complete"},
                id="arcs_at_a_complete_prefix",
            ),
            pytest.param(
                (graph, "jaconian"),
                lambda real: lambda g: (
                    real(g)._replace(delta=real(g).delta + 1) if (g.a, g.n) == (2, 3) else real(g)
                ),
                (1, 3, 40),
                {"graph.complete_prefix": "a=2 m=3 jaconian"},
                id="jaconian_at_a_complete_prefix",
            ),
            pytest.param(
                (graph, "edge_count_direct"),
                lambda real: lambda g: real(g) + ((g.a, g.n) == (2, 3)),
                (1, 3, 40),
                {
                    "analysis.edge_count_triple_agreement": (
                        "a=2 n=3 direct=4 theorem=3 recursive=3"
                    ),
                    "analysis.complete_prefix_count": "a=2 m=3",
                },
                id="edge_count_at_a_complete_prefix",
            ),
            pytest.param(
                (graph, "_jaconian_at"),
                lambda real: lambda seq, m: (
                    (real(seq, m)[0], real(seq, m)[1] - 2, real(seq, m)[2])
                    if (seq.a, m) == (2, 20) else real(seq, m)
                ),
                (1, 3, 40),
                # delta stays right, so only the readers of the prime index fail
                {
                    "graph.lowest_in_neighbor_attains_delta": "a=2 n=20 prime=6",
                    "graph.hope_complete": "a=2 n=20 missing=(7, 18)",
                    "analysis.edge_count_triple_agreement": (
                        "a=2 n=20 direct=119 theorem=122 recursive=119"
                    ),
                },
                id="prime_index",
            ),
            pytest.param(
                (graph, "degree_profile"),
                lambda real: lambda g: (
                    real(g)._replace(d_total=tuple(
                        d + (j == 1) for j, d in enumerate(real(g).d_total)
                    )) if (g.a, g.n) == (3, 40) else real(g)
                ),
                (1, 3, 40),
                # the step from v_1 to v_2 shrinks to a - 1, so only the
                # full-degree prefix below the saturated prime v_12 sees it
                {"graph.full_degree_prefix": "a=3 m=1"},
                id="degree_profile_first_vertex",
            ),
            pytest.param(
                (analysis, "milestone_delta"),
                lambda real: lambda a: real(a) + (a == 2),
                (1, 3, 40),
                {"analysis.milestone_delta": "a=2 n_star=8"},
                id="milestone_off_by_one",
            ),
            pytest.param(
                (analysis, "milestone_delta"),
                lambda real: lambda a: _exhausted(a) if a == 2 else real(a),
                (1, 3, 40),
                {"analysis.milestone_delta": "a=2 (no witness at a=2)"},
                id="milestone_exhausted",
            ),
            pytest.param(
                (oracles, "enumerate_shortest_paths"),
                lambda real: lambda g, j: real(g, j)[1:] if (g.a, j) == (2, 12) else real(g, j),
                (1, 3, 40),
                {"paths.psi_dp_matches_enumeration": "a=2 j=12 dp=4 enum=3"},
                id="shortest_paths_drops_one",
            ),
        ],
    )
    def test_injected_fault_is_pinpointed(self, monkeypatch, target, warp, grid, failures):
        # a perturbed route must fail exactly the claims that read it, with
        # a counterexample naming the parameters and the same checked range
        # the claim reports when it passes
        passing = {c.claim_id: c.checked for c in verify_suite(*grid).claims}
        module, name = target
        monkeypatch.setattr(module, name, warp(getattr(module, name)))
        report = verify_suite(*grid)
        failed = [c for c in report.claims if not c.passed]
        assert {c.claim_id: c.counterexample for c in failed} == failures
        assert {c.claim_id: c.checked for c in report.claims} == passing
        assert not report.passed
        assert render_report(report).splitlines()[-1] == "OVERALL FAIL"

    def test_a_warm_encoder_memo_fails_the_same_claims(self, monkeypatch):
        # zeck_encode remembers its last expansion; warmed, before a basis
        # fault is planted, on (1, 1), the first value the suite encodes, it
        # changes no verdict and no counterexample of that fault
        real = sequences.recurrence_terms

        def bumped(a, x0, x1, **kwargs):
            terms = real(a, x0, x1, **kwargs)
            if (a, x0, x1) == (1, 0, 1):  # U_2 = 2 at order 1
                return [*terms[:2], terms[2] + 1, *terms[3:]]
            return terms

        def failures():
            report = verify_suite(1, 3, 40)
            return {c.claim_id: c.counterexample for c in report.claims if not c.passed}

        sequences.zeck_encode.cache_clear()
        sequences.zeck_encode(1, 1)
        try:
            monkeypatch.setattr(sequences, "recurrence_terms", bumped)
            warm = failures()
            assert sequences.zeck_encode.cache_info().hits > 0
            sequences.zeck_encode.cache_clear()
            cold = failures()
        finally:
            # the memo may hold an expansion made on the faulty basis
            sequences.zeck_encode.cache_clear()
        assert warm == cold
        assert set(warm) == {
            "seq.closed_form", "seq.zeck_roundtrip", "seq.zeck_uniqueness",
            "seq.binet_crosscheck",
        }

    def test_quadratic_path_claims_stop_at_their_cap(self, monkeypatch):
        ids = {
            "paths.distance_recursion_matches_bfs",
            "paths.psi_recursion_matches_dp",
            "paths.psi_fast_matches_dp",
        }
        capped = [c for c in analysis._CLAIMS if c.claim_id in ids]
        assert [c.n_cap for c in capped] == [analysis._PATH_ORACLE_CAP] * 3
        # the golden reports reach n = 2100 and must keep their bytes
        assert analysis._PATH_ORACLE_CAP >= 2100
        # the registry holds the cap's value, so lower it there
        lowered = tuple(
            c._replace(n_cap=40) if c.claim_id in ids else c
            for c in analysis._CLAIMS
        )
        monkeypatch.setattr(analysis, "_CLAIMS", lowered)
        report = verify_suite(1, 1, 41)
        checked = {c.claim_id: c.checked for c in report.claims}
        assert all(checked[i].endswith(" n=40") for i in ids), checked
        assert checked["paths.level_ends_are_liz"].endswith(" n=41")
        assert report.passed

    def test_shared_second_routes_run_once_per_order(self, monkeypatch):
        calls = Counter()
        routes = ((oracles, "naive_build"), (paths, "psi_oracle"), (paths, "path_table"))
        for module, name in routes:
            real = getattr(module, name)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)
        assert verify_suite(1, 3, 40).passed
        # the arc relation, the contiguity and the in-degree claims share
        # one build per order; the path-count DP runs at n = 40 and at the
        # enumeration's cap 25 for each order, the Liz-window recursion
        # sharing n = 40; the four claims that read the path table share one
        # per order, and uniqueness_check builds its own
        assert calls == {"naive_build": 3, "psi_oracle": 6, "path_table": 6}

    def test_path_claims_peak_near_one_uniqueness_check(self, monkeypatch):
        # the claims past the path cap share one path table per order; the
        # uniqueness claim takes its report first, so the table that
        # uniqueness_check builds for itself is gone before the shared one
        # is built, and the two are never alive together; the columns it
        # recomputes are iterators, so the claims stay within a fifth of
        # one uniqueness_check (1.15 at CPython 3.10 to 3.12)
        ids = {
            "paths.uniqueness_biconditional",
            "paths.level_ends_are_liz",
            "paths.non_repetition_any_order",
        }
        narrowed = tuple(c for c in analysis._CLAIMS if c.claim_id in ids)
        assert len(narrowed) == 3 and all(c.n_cap is None for c in narrowed)
        monkeypatch.setattr(analysis, "_CLAIMS", narrowed)
        n = 50_000
        tracemalloc.start()
        try:
            paths.uniqueness_check(build(1, n))
            alone = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            report = verify_suite(1, 1, n)
            claims = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert claims <= 1.2 * alone, f"claims {claims} uniqueness_check {alone}"

    def test_complete_prefix_streams_its_arcs(self):
        # the arcs of J_m(a) are compared in order with the pairs of 1..m,
        # so no m(m-1)/2-element set is built (about 2.2 MB at a = 150)
        tracemalloc.start()
        try:
            assert analysis._claim_complete_prefix(150, 1) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_a_failing_non_repetition_claim_builds_no_rows(self, monkeypatch):
        # (N) names its k by one search over the two flag columns, so a
        # planted fault near the end costs what a passing call does
        n = 200_000

        def measured():
            tracemalloc.start()
            try:
                found = analysis._claim_non_repetition(1, n)
                return found, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        passing, clean = measured()
        real = paths.path_table

        def faulty(g):
            dist, psi = real(g)
            j = g.n - 1000
            return paths.PathTable(dist, (*psi[:j], psi[j] + 1, *psi[j + 1 :]))

        monkeypatch.setattr(paths, "path_table", faulty)
        failing, faulted = measured()
        assert (passing, failing) == (None, f"a=1 k={n - 1000}")
        assert faulted <= 1.25 * clean, f"faulted {faulted} clean {clean}"

    def test_first_difference(self):
        first = analysis._first_difference
        assert first([1, 2, 3], (1, 2, 3)) is None
        assert first([], iter(())) is None
        assert first([1, 2], [1, 2, 3]) == (2, None, 3)
        assert first(iter([1, 2, 3]), [1, 2], 1) == (3, 3, None)
        assert first([0, 2], [1, 2]) == (0, 0, 1)

    def test_no_shared_result_outlives_a_run(self, monkeypatch):
        # a run that raises mid-order and a run that returns both leave
        # nothing behind: the next run computes the routes patched in between
        real_build, real_psi = oracles.naive_build, paths.psi_oracle

        def faulty_run():
            with monkeypatch.context() as m:
                m.setattr(oracles, "naive_build",
                          lambda a, n: _toggle_arc(real_build(a, n), 8, 11))
                m.setattr(paths, "psi_oracle", lambda g: tuple(
                    p + (g.n == 40 and j == 8) for j, p in enumerate(real_psi(g))
                ))
                report = verify_suite(2, 2, 40)
            return {c.claim_id: c.counterexample for c in report.claims if not c.passed}

        faults = {
            "graph.arc_relation_matches_naive_builder": "a=2 arc=(8, 11)",
            "graph.neighborhood_contiguity": "a=2 vertex=8",
            "graph.in_degree_stability": "a=2 j=11",
            "paths.psi_recursion_matches_dp": "a=2 j=8 recursion=6 dp=7",
            "paths.psi_fast_matches_dp": "a=2 j=8",
        }
        last = analysis._CLAIMS[-1]

        def raising(a, n):
            # the registry's last claim, so order 2's shared results are all
            # held; a MemoryError is the one error that ends a run
            if a == 2:
                raise MemoryError("injected")
            return last.fn(a, n)

        with monkeypatch.context() as m:
            m.setattr(analysis, "_CLAIMS",
                      (*analysis._CLAIMS[:-1], last._replace(fn=raising)))
            with pytest.raises(MemoryError, match="injected"):
                verify_suite(1, 3, 40)
        assert faulty_run() == faults
        assert verify_suite(2, 2, 40).passed
        assert faulty_run() == faults

    def test_a_claim_that_raises_fails_only_at_its_order(self, monkeypatch):
        # the claim that raises stops at order 2; every other claim runs at
        # every order, the later ones included
        ran = Counter()

        def logged(claim, raises_at=None):
            def fn(a, n):
                ran[claim.claim_id, a] += 1
                if a == raises_at:
                    raise KeyError(f"no entry at order {a}")
                return claim.fn(a, n)
            return claim._replace(fn=fn)

        first, *rest = analysis._CLAIMS
        monkeypatch.setattr(analysis, "_CLAIMS", (
            logged(first, raises_at=2), *(logged(claim) for claim in rest)
        ))
        report = verify_suite(1, 3, 40)
        assert [c.counterexample for c in report.claims] == (
            ["a=2 raised KeyError"] + [None] * len(rest)
        )
        assert render_report(report).splitlines()[0] == (
            f"CLAIM {first.claim_id} FAIL checked=a[1..3] counterexample=a=2 raised KeyError"
        )
        assert ran == {(claim.claim_id, a): 1 for claim in rest for a in (1, 2, 3)} | {
            (first.claim_id, 1): 1, (first.claim_id, 2): 1,
        }

    @pytest.mark.parametrize("error", [MemoryError, OverflowError])
    def test_a_refused_allocation_ends_the_run(self, monkeypatch, error):
        # what the CLI reports as an input too large is no claim's verdict
        first, *rest = analysis._CLAIMS

        def refused(a, n):
            raise error("injected")

        monkeypatch.setattr(analysis, "_CLAIMS", (first._replace(fn=refused), *rest))
        with pytest.raises(error, match="injected"):
            verify_suite(1, 1, 40)
        assert analysis._order_memo is None

    def test_no_entry_of_a_claim_called_alone_is_read(self, monkeypatch):
        # a claim called outside a run stores nothing, since the per-order
        # memo is None then; the next run must compute the route patched in
        # between
        assert analysis._claim_contiguity(1, 40) is None
        real = oracles.naive_build
        monkeypatch.setattr(oracles, "naive_build",
                            lambda a, n: _toggle_arc(real(a, n), 8, 11))
        report = verify_suite(1, 1, 40)
        assert {c.claim_id: c.counterexample for c in report.claims if not c.passed} == {
            "graph.arc_relation_matches_naive_builder": "a=1 arc=(8, 11)",
            "graph.neighborhood_contiguity": "a=1 vertex=8",
            "graph.in_degree_stability": "a=1 j=11",
        }

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            verify_suite(2, 1, 10)
        with pytest.raises(ValueError):
            verify_suite(1, 1, 0)
        with pytest.raises(ValueError):
            edge_count_recursive(2, 0)


def test_prefix_searches_do_not_rescan_per_prefix(monkeypatch):
    # the prefix searches read closed forms in c: a full degree scan per
    # prefix m would make these call counts grow with n and a
    calls = Counter()

    def counter(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    monkeypatch.setattr(graph, "degree_profile", counter("degree_profile", graph.degree_profile))
    monkeypatch.setattr(oracles, "jaconian_scan", counter("jaconian_scan", oracles.jaconian_scan))

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return dict(calls)

    assert count(milestone_delta, 12) == count(milestone_delta, 24)
    small = count(verify_suite, 1, 3, 80)
    assert small == count(verify_suite, 1, 3, 160)
    # the counters do see the suite's own calls
    assert small["degree_profile"] > 0 and small["jaconian_scan"] > 0


def test_prefix_walkers_build_no_jaconian_record(monkeypatch):
    # the walkers and hope_is_complete read the closed form's three ints;
    # only the public jaconian(g) builds a JaconianInfo, one per call
    built = []

    class Counted(graph.JaconianInfo):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(graph, "JaconianInfo", Counted)
    milestone_delta(12)
    milestone_delta(24)
    edge_count_recursive(2, 200)
    seq = sequences.c_series(2, 200)
    for m in range(1, 201):
        graph.hope_is_complete(graph.JacoGraph(seq, m))
    assert len(built) == 0
    graph.jaconian(build(2, 50))
    assert len(built) == 1


def test_single_graph_routes_make_no_degree_scan(monkeypatch):
    # the Jaconian and both edge counts of one graph are closed forms in c
    calls = Counter()
    real = graph.degree_profile

    def counted(g):
        calls["degree_profile"] += 1
        return real(g)

    monkeypatch.setattr(graph, "degree_profile", counted)
    g = build(2, 5000)
    graph.jaconian(g)
    edge_count_direct(g)
    edge_count_theorem(g)
    assert calls["degree_profile"] == 0
    analysis._claim_degree_step(2, 50)
    assert calls["degree_profile"] == 1  # the counter does see a scan


def _flat_table(a, horizon):
    # a degenerate table: c = 0 everywhere, so every v_j has in-window [0, j-1]
    return sequences.SequenceTable(a, tuple([0] * (horizon + 1)))


def test_milestone_reports_violation_when_search_exhausts(monkeypatch):
    # in the flat table no vertex ever reaches the target degree; the
    # bounded search must fail loudly
    monkeypatch.setattr(sequences, "c_series", _flat_table)
    with pytest.raises(TheoremViolationError):
        milestone_delta(2)


def test_degree_identity_counts_out_degrees_from_the_in_windows(monkeypatch):
    # dplus[m] + m - c[m] = a*m holds for any table by the column
    # definition; the out-degree read off the in-windows does not
    assert analysis._claim_degree_identity(2, 50) is None
    monkeypatch.setattr(sequences, "c_series", _flat_table)
    assert analysis._claim_degree_identity(2, 50) == "a=2 n=1"


def test_seed_values_claim_builds_two_terms_whatever_n(monkeypatch):
    # the claim reads c[0] and c[1] only; a table to n = 10**6 would be
    # millions of terms for a check that needs two
    horizons = []
    real_table = sequences.c_series

    def table(a, horizon):
        horizons.append(horizon)
        return real_table(a, horizon)

    monkeypatch.setattr(sequences, "c_series", table)
    assert analysis._claim_seed_values(2, 10**6) is None
    assert horizons and max(horizons) <= 1


@pytest.mark.parametrize("a", [1, 2])
def test_beatty_claim_does_not_share_a_fault_with_the_closed_form(monkeypatch, a):
    # one fault in both c routes at n = 17 passes seq.closed_form, which
    # compares them; the Beatty form still names it
    real_table, real_closed = sequences.c_series, sequences.c_closed

    def table(order, horizon):
        c = list(real_table(order, horizon).c)
        if order == a and horizon >= 17:
            c[17] += 1
        return sequences.SequenceTable(order, tuple(c))

    monkeypatch.setattr(sequences, "c_series", table)
    monkeypatch.setattr(sequences, "c_closed",
                        lambda order, n: real_closed(order, n) + ((order, n) == (a, 17)))
    assert analysis._claim_closed_form(a, 40) is None
    assert analysis._claim_beatty(a, 40) == f"a={a} n=17"


def test_run_start_claim_checks_what_the_fixpoint_claim_does_not(monkeypatch):
    # at a = 1 the run of 6 in c is n = 9, 10: seq.fixpoint (b = 0 only)
    # reads its end, reach_6 = 10, and only the run-start claim reads c[9],
    # the old order-1 identity D(i + D(i-1)) = i at i = 6
    real_table = sequences.c_series

    def table(a, horizon):
        c = list(real_table(a, horizon).c)
        c[9] -= 1
        return sequences.SequenceTable(a, tuple(c))

    assert analysis._claim_run_start(1, 40) is None
    monkeypatch.setattr(sequences, "c_series", table)
    assert analysis._claim_fixpoint(1, 40) is None
    assert analysis._claim_monotone_step(1, 40) is None
    assert analysis._claim_run_start(1, 40) == "a=1 k=6"


def test_naive_oracles_read_no_fast_route(monkeypatch):
    # the naive builder and the brute-force c are second routes: they must
    # give the same values with the table and the graph they check unreachable
    grid = [(a, n) for a in range(1, 5) for n in (1, 2, 60)]

    def run():
        return [(oracles.naive_build(a, n), oracles.c_series_bruteforce(a, n)) for a, n in grid]

    before = run()

    def refuse(*args):
        raise AssertionError("a second route read a fast route")

    for module, names in (
        (sequences, ("c_series",)),
        (graph, ("build", "arcs", "_last_heads", "out_neighbors", "in_neighbors",
                 "degree_profile")),
    ):
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    assert run() == before
