import dataclasses
from bisect import insort
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jaco import analysis, graph
from jaco.analysis import (
    TheoremViolationError,
    complete_prefix_count,
    edge_count_direct,
    edge_count_recursive,
    edge_count_theorem,
    milestone_delta,
    render_report,
    verify_suite,
)
from jaco.graph import build
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
    def test_examples(self):
        assert complete_prefix_count(2, 3) == 3
        assert complete_prefix_count(5, 1) == 0
        assert complete_prefix_count(1, 2) == 1

    def test_domain_error_beyond_prefix(self):
        with pytest.raises(ValueError):
            complete_prefix_count(2, 4)

    @pytest.mark.parametrize("a", list(range(1, 11)))
    def test_matches_graph(self, a):
        for m in range(1, a + 2):
            assert edge_count_direct(build(a, m)) == complete_prefix_count(a, m)


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
            (2, 4, 150),  # the order-1 claims are skipped
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
                (analysis.sequences, "c_closed"),
                lambda real: lambda a, n: real(a, n) + ((a, n) == (2, 17)),
                (2, 2, 40),
                {"seq.closed_form": "a=2 n=17"},
                id="closed_form",
            ),
            pytest.param(
                (analysis.graph_mod, "in_neighbors"),
                lambda real: lambda g, j: range(0) if (g.n, j) == (20, 5) else real(g, j),
                (2, 2, 40),
                {"graph.in_degree_stability": "a=2 m=20 j=5"},
                id="in_degree_stability",
            ),
            pytest.param(
                (analysis.paths_mod, "psi_oracle"),
                lambda real: lambda g: tuple(
                    p + (g.n == 40 and j == 8) for j, p in enumerate(real(g))
                ),
                (1, 1, 40),
                {
                    "paths.psi_recursion_matches_dp": "j=8 recursion=1 dp=2",
                    "paths.psi_fast_matches_dp": "a=1 j=8",
                },
                id="psi_oracle",
            ),
            pytest.param(
                (analysis.paths_mod, "path_table"),
                lambda real: lambda g: dataclasses.replace(real(g), psi=tuple(
                    p + (g.n == 40 and j == 8) for j, p in enumerate(real(g).psi)
                )),
                (1, 1, 40),
                {
                    # psi[8] = 2 at the Fibonacci index 8, so v_8 has two paths
                    "paths.psi_fast_matches_dp": "a=1 j=8",
                    "paths.uniqueness_biconditional": "j=8 unique=False fib=True",
                    "paths.psi_one_at_fibonacci": "f=8 psi=2",
                },
                id="psi_one_at_fib",
            ),
            pytest.param(
                (analysis.graph_mod, "_jaconian_at"),
                lambda real: lambda seq, m: (
                    dataclasses.replace(real(seq, m), delta=real(seq, m).delta + 1)
                    if m == 20 else real(seq, m)
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
                (analysis.oracles, "jaconian_scan"),
                lambda real: lambda g: dataclasses.replace(real(g), delta=real(g).delta + 1),
                (1, 1, 40),
                {"graph.monotone_delta": "a=1 n=40 sweep differs from full scan"},
                id="jaconian_scan",
            ),
            pytest.param(
                (analysis.graph_mod, "jaconian"),
                lambda real: lambda g: (
                    dataclasses.replace(real(g), hope_range=range(1, g.n + 1))
                    if g.n == 20 else real(g)
                ),
                (1, 1, 40),
                {"graph.hope_complete": "a=1 n=20 missing=(1, 3)"},
                id="hope_range",
            ),
            pytest.param(
                (analysis, "edge_count_direct"),
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
                (analysis.oracles, "naive_build"),
                lambda real: lambda a, n: _toggle_arc(real(a, n), 8, 11),
                (1, 1, 40),
                {
                    "graph.arc_relation_matches_naive_builder": "a=1 arc=(8, 11)",
                    # heads[8] becomes 9, 10, 12, 13
                    "graph.neighborhood_contiguity": "a=1 vertex=8",
                },
                id="naive_build_drops_arc",
            ),
            pytest.param(
                (analysis.oracles, "naive_build"),
                lambda real: lambda a, n: _toggle_arc(real(a, n), 1, 40),
                (1, 1, 40),
                {
                    "graph.arc_relation_matches_naive_builder": "a=1 arc=(1, 40)",
                    # heads[1] becomes 2, 40
                    "graph.neighborhood_contiguity": "a=1 vertex=1",
                },
                id="naive_build_adds_arc",
            ),
            pytest.param(
                (analysis.oracles, "naive_build"),
                lambda real: lambda a, n: _toggle_arc(real(a, n), 9, 11, in_heads=False),
                (1, 1, 40),
                # the arc relation reads heads only; tails[11] becomes 7, 8, 10
                {"graph.neighborhood_contiguity": "a=1 vertex=11"},
                id="naive_build_tails_gap",
            ),
            pytest.param(
                (analysis, "arcs"),
                lambda real: lambda g: iter(list(real(g))[:-1]) if g.n == 40 else real(g),
                (1, 1, 40),
                # the counts agree, so only the lost last arc can show it
                {"graph.arc_relation_matches_naive_builder": "a=1 arc=(39, 40)"},
                id="arcs_loses_last",
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
        assert all(c.checked == passing[c.claim_id] for c in failed)
        assert not report.passed
        assert render_report(report).splitlines()[-1] == "OVERALL FAIL"

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            verify_suite(2, 1, 10)
        with pytest.raises(ValueError):
            verify_suite(1, 1, 0)


def test_prefix_searches_do_not_rescan_per_prefix(monkeypatch):
    # the prefix searches read closed forms in c: a full degree scan per
    # prefix m would make these call counts grow with n and a
    calls = Counter()

    def counter(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    scan = counter("degree_profile", graph.degree_profile)
    for module in (graph, analysis):
        monkeypatch.setattr(module, "degree_profile", scan)
    oracles = analysis.oracles
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


def test_single_graph_routes_make_no_degree_scan(monkeypatch):
    # the Jaconian and both edge counts of one graph are closed forms in c
    calls = Counter()
    real = graph.degree_profile

    def counted(g):
        calls["degree_profile"] += 1
        return real(g)

    for module in (graph, analysis):
        monkeypatch.setattr(module, "degree_profile", counted)
    g = build(2, 5000)
    graph.jaconian(g)
    edge_count_direct(g)
    edge_count_theorem(g)
    assert calls["degree_profile"] == 0
    analysis._claim_degree_step(2, 50)
    assert calls["degree_profile"] == 1  # the counter does see a scan


def _flat_table(a, horizon):
    # a degenerate table: c = 0 everywhere, so every v_j has in-window [0, j-1]
    return analysis.sequences.SequenceTable(a, tuple([0] * (horizon + 1)))


def test_milestone_reports_violation_when_search_exhausts(monkeypatch):
    # in the flat table no vertex ever reaches the target degree; the
    # bounded search must fail loudly
    monkeypatch.setattr(analysis.sequences, "c_series", _flat_table)
    with pytest.raises(TheoremViolationError):
        milestone_delta(2)


def test_degree_identity_counts_out_degrees_from_the_in_windows(monkeypatch):
    # dplus[m] + dminus[m] = a*m holds for any table by the column
    # definitions; the out-degree read off the in-windows does not
    assert analysis._claim_degree_identity(2, 50) is None
    monkeypatch.setattr(analysis.sequences, "c_series", _flat_table)
    assert analysis._claim_degree_identity(2, 50) == "a=2 n=1"


def test_order_one_outdegree_claim_does_not_share_a_fault_with_the_closed_form(monkeypatch):
    # one fault in both c routes at (a, n) = (1, 17) passes seq.closed_form,
    # which compares them; the Beatty form still finds it in bettina_dplus
    real_table, real_closed = analysis.sequences.c_series, analysis.sequences.c_closed

    def table(a, horizon):
        c = list(real_table(a, horizon).c)
        if a == 1 and horizon >= 17:
            c[17] += 1
        return analysis.sequences.SequenceTable(a, tuple(c))

    monkeypatch.setattr(analysis.sequences, "c_series", table)
    monkeypatch.setattr(analysis.sequences, "c_closed",
                        lambda a, n: real_closed(a, n) + ((a, n) == (1, 17)))
    assert analysis._claim_closed_form(1, 40) is None
    assert analysis._claim_bettina(1, 40) == "n=17"
