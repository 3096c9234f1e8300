"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line and enforcing its stated runtime budget."""

import time
from bisect import bisect_right
from itertools import chain, repeat, starmap, zip_longest
from operator import eq

from jaco.analysis import (
    edge_count_recursive,
    edge_count_theorem,
    milestone_delta,
)
from jaco.cli import main
from jaco.export import seq_dump, to_csv, to_dot, to_json
from jaco.graph import JacoGraph, arcs, build, edge_count_direct, jaconian
from jaco.oracles import (
    bfs_distances,
    enumerate_shortest_paths,
    enumerate_zeck_reps,
    naive_build,
    psi_recursive,
)
from jaco.paths import distances, psi_oracle, uniqueness_check
from jaco.sequences import bettina_dplus, c_closed, c_series, zeck_encode

from test_export import GOLDEN


class _Criterion:
    def __init__(self, number, name, budget_seconds=None):
        self.number = number
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        self.ok = False
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {status} ({elapsed:.2f}s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def test_01_degree_identity():
    with _Criterion(1, "degree identity d+ + d- = a*n", 5):
        for a in range(1, 6):
            # every v_j with v_n in its in-window [c[j], j-1] has j <= (a+1)*n
            c = c_series(a, (a + 1) * 2000 + 1).c
            for n in range(1, 2001):
                # the out-degree counted from the in-windows is (a-1)*n + c[n]
                d_out = bisect_right(c, n) - 1 - n
                assert d_out == (a - 1) * n + c[n]
                assert d_out + (n - c[n]) == a * n


def test_02_closed_form_equivalence():
    with _Criterion(2, "closed form equals recursion to 1e5", 30):
        for a in range(1, 6):
            c = c_series(a, 100_000).c
            for n in range(1, 100_001):
                assert c_closed(a, n) == c[n], f"a={a} n={n}"


def test_03_zeckendorf_shift_outdegree():
    with _Criterion(3, "Zeckendorf-shift out-degree to 1e5", 10):
        # at a = 1 the out-degree (a-1)*n + c[n] is c[n]
        c = c_series(1, 100_000).c
        for n in range(1, 100_001):
            assert bettina_dplus(n) == c[n], f"n={n}"


def test_04_zeckendorf_uniqueness():
    with _Criterion(4, "exhaustive digit-string uniqueness to 2000", 60):
        for a in (1, 2, 3):
            reps = enumerate_zeck_reps(a, 2000)
            for n in range(1, 2001):
                assert reps.get(n, []) == [zeck_encode(a, n)], f"a={a} n={n}"


def test_05_graph_definition_equivalence():
    with _Criterion(5, "range arcs equal per-definition builder", 10):
        for a in range(1, 5):
            _, heads = naive_build(a, 300)
            for n in range(1, 301):
                # the naive arcs with head <= n, in lexicographic order,
                # streamed pairwise against the fast ones to the longer end
                expected = chain.from_iterable(
                    zip(repeat(i), h[:bisect_right(h, n)]) for i, h in enumerate(heads[:n])
                )
                pairs = zip_longest(arcs(build(a, n)), expected)
                assert all(starmap(eq, pairs)), f"a={a} n={n}"


def test_06_edge_count_triple_agreement():
    with _Criterion(6, "edge counts: direct = theorem = recursive", 10):
        assert edge_count_direct(build(1, 8)) == 13
        assert edge_count_direct(build(2, 5)) == 8
        for a in range(1, 5):
            seq = c_series(a, 2000)
            recursive = list(edge_count_recursive(JacoGraph(seq, 2000)))
            for n in range(1, 2001):
                g = JacoGraph(seq, n)
                direct = edge_count_direct(g)
                assert direct == recursive[n - 1], f"a={a} n={n}"
                assert direct == edge_count_theorem(g), f"a={a} n={n}"


def test_07_milestone():
    with _Criterion(7, "maximum-degree milestone at a(a+1)+1", 5):
        for a in range(1, 21):
            n_star = milestone_delta(a)
            assert n_star == a * (a + 1) + 1, f"a={a}"
            info = jaconian(build(a, n_star))
            assert info.delta == a * (a + 1)
            assert info.jaconian_set == (a + 1,)


def test_08_complete_prefix():
    with _Criterion(8, "complete prefix J_m(a), m <= a+1", None):
        for a in range(1, 11):
            for m in range(1, a + 2):
                g = build(a, m)
                want = {(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)}
                assert set(arcs(g)) == want, f"a={a} m={m}"
                assert edge_count_direct(g) == m * (m - 1) // 2


def test_09_distances():
    with _Criterion(9, "distance recursion equals breadth-first", 10):
        for a in range(1, 5):
            g = build(a, 2000)
            assert list(distances(g)) == [0] + bfs_distances(g)[1:], f"a={a}"
            for n in (1, 17, 500):
                small = build(a, n)
                assert list(distances(small)) == [0] + bfs_distances(small)[1:]


def test_10_psi_agreement():
    with _Criterion(10, "path counts: recursion = DP = enumeration", 10):
        g = build(1, 2000)
        psi = psi_oracle(g)
        assert psi_recursive(g) == psi
        assert (psi[7], psi[9], psi[11]) == (2, 5, 3)
        small = build(1, 25)
        psi_small = psi_oracle(small)
        for j in range(1, 26):
            assert psi_small[j] == len(enumerate_shortest_paths(small, j)), f"j={j}"


def test_11_uniqueness_biconditional():
    with _Criterion(11, "uniqueness iff Fibonacci out-degree, j <= 2000", None):
        report = uniqueness_check(build(1, 2000))
        assert report.mismatches == (), (
            f"biconditional fails first at j={report.mismatches[:1]}"
        )


def test_12_conjecture_scan_deterministic(capsys, tmp_path):
    with _Criterion(12, "conjecture scan n=10000: deterministic, < 30s", 30):
        outputs = []
        for jobs in ("1", "1", "4"):
            out_file = tmp_path / f"scan_{len(outputs)}.txt"
            code = main(["conjecture", "--n", "10000", "--jobs", jobs,
                         "--out", str(out_file)])
            assert code in (0, 1)  # violations reported, not asserted
            outputs.append(out_file.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        summary = outputs[0].decode().splitlines()[-1]
        print(f"conjecture scan: {summary}")


def test_13_golden_files():
    with _Criterion(13, "golden exports byte-match", None):
        for a, n in ((1, 8), (2, 7)):
            g = build(a, n)
            assert to_dot(g) == (GOLDEN / f"jaco_a{a}_n{n}.dot").read_text()
            assert to_json(g) == (GOLDEN / f"jaco_a{a}_n{n}.json").read_text()
            assert to_csv(g) == (GOLDEN / f"jaco_a{a}_n{n}.csv").read_text()
            assert seq_dump(c_series(a, n)) == (GOLDEN / f"seq_a{a}_h{n}.tsv").read_text()
