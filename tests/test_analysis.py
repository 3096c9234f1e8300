import dataclasses
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
    edge_count_report,
    edge_count_theorem,
    milestone_delta,
    render_report,
    verify_suite,
)
from jaco.graph import build
from jaco.oracles import naive_build, out_degree_sum

GOLDEN = Path(__file__).parent / "golden"


class TestEdgeCounts:
    def test_direct_examples(self):
        assert edge_count_direct(build(1, 8)) == 13
        assert edge_count_direct(build(1, 1)) == 0
        assert edge_count_direct(build(2, 5)) == 8

    def test_direct_matches_naive_enumeration(self):
        for a in (1, 2, 3):
            for n in (1, 2, 9, 60):
                naive_arcs, _ = naive_build(a, n)
                assert edge_count_direct(build(a, n)) == len(naive_arcs)

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

    def test_report_object(self):
        report = edge_count_report(build(2, 40))
        assert report.direct == report.theorem == report.recursive

    @given(a=st.integers(1, 40), n=st.integers(1, 3000), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_out_arcs_match_literal_sum(self, a, n, data):
        g = build(a, n)
        k = data.draw(st.integers(0, n))
        assert analysis._out_arcs(g, k) == out_degree_sum(g, k), f"a={a} n={n} k={k}"
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
        assert milestone_delta(a).n_star == n_star

    @pytest.mark.parametrize("a", list(range(1, 21)))
    def test_prediction(self, a):
        assert milestone_delta(a).n_star == a * (a + 1) + 1


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
                    "paths.psi_one_at_fibonacci": "f=8 psi=2",
                },
                id="psi_one_at_fib",
            ),
            pytest.param(
                (analysis.graph_mod, "prefix_jaconians"),
                lambda real: lambda seq, n: (
                    dataclasses.replace(info, delta=info.delta + 1) if m == 20 else info
                    for m, info in enumerate(real(seq, n), 1)
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
    # the prefix searches read the one-pass sweep: a full degree scan per
    # prefix m would make these call counts grow with n and a
    calls = Counter()
    for name in ("degree_profile", "jaconian"):
        real = getattr(graph, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        for module in (graph, analysis):
            monkeypatch.setattr(module, name, counted)

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return dict(calls)

    assert count(milestone_delta, 12) == count(milestone_delta, 24)
    small = count(verify_suite, 1, 3, 80)
    assert small == count(verify_suite, 1, 3, 160)
    assert small["jaconian"] > 0  # the counters do see the suite's own calls


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


def test_milestone_reports_violation_when_search_exhausts(monkeypatch):
    # feed the search a degenerate table in which no vertex ever reaches
    # the target degree; the bounded search must fail loudly
    from jaco.sequences import SequenceTable

    def flat_table(a, horizon):
        return SequenceTable(a, horizon, tuple([0] * (horizon + 1)))

    monkeypatch.setattr(analysis.sequences, "c_series", flat_table)
    with pytest.raises(TheoremViolationError):
        milestone_delta(2)
