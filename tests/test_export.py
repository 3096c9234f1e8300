import json
import re
import tracemalloc
from pathlib import Path

import pytest

from jaco import export
from jaco.export import seq_dump, to_csv, to_dot, to_json
from jaco.graph import arcs, build
from jaco.oracles import c_series_bruteforce, naive_build
from jaco.sequences import c_series

GOLDEN = Path(__file__).parent / "golden"


class TestDot:
    def test_small(self):
        assert to_dot(build(1, 3)) == (
            "digraph jaco_a1_n3 {\n  v1 -> v2;\n  v2 -> v3;\n}\n"
        )

    def test_single_vertex(self):
        assert to_dot(build(1, 1)) == "digraph jaco_a1_n1 {\n  v1;\n}\n"

    def test_arc_count(self):
        body = to_dot(build(2, 4)).splitlines()[1:-1]
        assert len(body) == 5


class TestJson:
    def test_small(self):
        doc = json.loads(to_json(build(1, 3)))
        assert doc["edges"] == [[1, 2], [2, 3]]
        assert doc["delta"] == 2
        assert doc["jaconian"] == [2]
        assert doc["prime"] == 2
        assert doc["hope"] == [3, 3]

    def test_single_vertex(self):
        doc = json.loads(to_json(build(1, 1)))
        assert doc["edges"] == []
        assert doc["delta"] == 0
        assert doc["jaconian"] == [1]
        assert doc["prime"] == 1
        assert doc["hope"] is None

    def test_order2(self):
        doc = json.loads(to_json(build(2, 4)))
        assert (doc["delta"], doc["jaconian"], doc["prime"]) == (3, [2, 3], 2)

    def test_key_order_is_fixed(self):
        keys = list(json.loads(to_json(build(2, 7))).keys())
        assert keys == [
            "a", "n", "edges", "in_degree", "out_degree",
            "total_degree", "delta", "jaconian", "prime", "hope",
        ]

    # (1, 400) and (3, 300) are sizes no golden file covers
    @pytest.mark.parametrize("a,n", [(1, 8), (2, 7), (3, 20), (1, 400), (3, 300)])
    def test_roundtrip_reconstructs_arcs(self, a, n):
        doc = json.loads(to_json(build(a, n)))
        assert {tuple(e) for e in doc["edges"]} == set(arcs(build(a, n)))
        _, heads = naive_build(a, n)
        assert [tuple(e) for e in doc["edges"]] == [
            (i, j) for i, h in enumerate(heads) for j in h
        ]
        # the degree arrays and the summary, recounted from the edges
        d_in, d_out = [0] * n, [0] * n
        for i, j in doc["edges"]:
            d_out[i - 1] += 1
            d_in[j - 1] += 1
        total = [x + y for x, y in zip(d_in, d_out)]
        assert (doc["in_degree"], doc["out_degree"], doc["total_degree"]) == (d_in, d_out, total)
        assert doc["delta"] == max(total)
        assert doc["prime"] == total.index(max(total)) + 1


class TestCsv:
    def test_small(self):
        assert to_csv(build(1, 3)) == "tail,head\n1,2\n2,3\n"

    def test_header_only(self):
        assert to_csv(build(1, 1)) == "tail,head\n"

    def test_order2(self):
        assert to_csv(build(2, 4)).count("\n") == 6  # header + 5 arcs


class TestSeqDump:
    def test_small(self):
        assert seq_dump(c_series(1, 3)) == (
            "n\tc\td_minus\td_plus\treach\n"
            "0\t0\t0\t0\t0\n"
            "1\t1\t0\t1\t2\n"
            "2\t1\t1\t1\t3\n"
            "3\t2\t1\t2\t5\n"
        )

    def test_order2_first_row(self):
        assert seq_dump(c_series(2, 1)) == (
            "n\tc\td_minus\td_plus\treach\n0\t0\t0\t0\t0\n1\t1\t0\t2\t3\n"
        )

    def test_horizon_zero(self):
        assert seq_dump(c_series(1, 0)) == "n\tc\td_minus\td_plus\treach\n0\t0\t0\t0\t0\n"

    @pytest.mark.parametrize("a", [1, 3])
    def test_block_edges(self, a):
        # tables that end just before, at and just after a block edge
        block = export._BLOCK
        for horizon in (block - 2, block - 1, block, 2 * block - 1, 2 * block):
            t = c_series(a, horizon)
            rows = [
                f"{n}\t{cn}\t{n - cn}\t{(a - 1) * n + cn}\t{a * n + cn}\n"
                for n, cn in enumerate(t.c)
            ]
            assert seq_dump(t) == "n\tc\td_minus\td_plus\treach\n" + "".join(rows)

    def test_peak_stays_near_the_text(self):
        # rows are joined in blocks, so no string per row is alive at once
        t = c_series(2, 200_000)
        tracemalloc.start()
        try:
            text = seq_dump(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count("\n") == 200_002
        assert peak <= 2.5 * len(text), f"peak {peak} text {len(text)}"


@pytest.mark.parametrize("a,n", [(1, 8), (2, 7)])
class TestGoldenFiles:
    def test_dot(self, a, n):
        assert to_dot(build(a, n)) == (GOLDEN / f"jaco_a{a}_n{n}.dot").read_text()

    def test_json(self, a, n):
        assert to_json(build(a, n)) == (GOLDEN / f"jaco_a{a}_n{n}.json").read_text()

    def test_csv(self, a, n):
        assert to_csv(build(a, n)) == (GOLDEN / f"jaco_a{a}_n{n}.csv").read_text()

    def test_tsv(self, a, n):
        assert seq_dump(c_series(a, n)) == (GOLDEN / f"seq_a{a}_h{n}.tsv").read_text()


def test_rendering_is_stable_across_calls():
    for _ in range(3):
        assert to_dot(build(2, 7)) == to_dot(build(2, 7))
        assert to_json(build(2, 7)) == to_json(build(2, 7))


# Reference renderers from the definitions: the arcs of oracles.naive_build,
# and the degrees, the maximum degree, the Jaconian set, the prime index and
# the Hope pair counted from its lists.  No route of graph is read, so a
# fault in arcs, degree_profile or jaconian cannot pass through a renderer
# and its reference alike.  The renderers under test emit each tail's arcs
# as one block and must produce exactly these bytes, one line (or [i, j]
# pair) per arc.


def naive_arcs(g):
    return [(i, j) for i, h in enumerate(naive_build(g.a, g.n)[1]) for j in h]


def reference_dot(g):
    lines = [f"digraph jaco_a{g.a}_n{g.n} {{"]
    arc_list = naive_arcs(g)
    if not arc_list:
        lines.append("  v1;")
    for i, j in arc_list:
        lines.append(f"  v{i} -> v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_json(g):
    tails, heads = naive_build(g.a, g.n)
    d_in = [len(t) for t in tails[1:]]
    d_out = [len(h) for h in heads[1:]]
    total = [x + y for x, y in zip(d_in, d_out)]
    delta = max(total)
    jaconian_set = [i for i, d in enumerate(total, 1) if d == delta]
    prime = jaconian_set[0]
    payload = {
        "a": g.a,
        "n": g.n,
        "edges": [[i, j] for i, h in enumerate(heads) for j in h],
        "in_degree": d_in,
        "out_degree": d_out,
        "total_degree": total,
        "delta": delta,
        "jaconian": jaconian_set,
        "prime": prime,
        # the vertices above the prime index, none when it is v_n
        "hope": [prime + 1, g.n] if prime < g.n else None,
    }
    return json.dumps(payload) + "\n"


def reference_csv(g):
    lines = ["tail,head"]
    lines.extend(f"{i},{j}" for i, j in naive_arcs(g))
    return "\n".join(lines) + "\n"


def reference_seq_dump(a, horizon):
    # c by brute force; v_n of the infinite graph has in-neighbors
    # v_c[n]..v_{n-1} and out-neighbors v_{n+1}..v_{a*n + c[n]}
    rows = [
        f"{n}\t{cn}\t{n - cn}\t{a * n + cn - n}\t{a * n + cn}\n"
        for n, cn in enumerate(c_series_bruteforce(a, horizon))
    ]
    return "n\tc\td_minus\td_plus\treach\n" + "".join(rows)


RENDERERS = [
    pytest.param(to_dot, reference_dot, id="dot"),
    pytest.param(to_json, reference_json, id="json"),
    pytest.param(to_csv, reference_csv, id="csv"),
]


@pytest.mark.parametrize("render,reference", RENDERERS)
@pytest.mark.parametrize("a", range(1, 6))
class TestMatchesPerArcReference:
    def test_every_small_n(self, render, reference, a):
        for n in range(1, 61):
            g = build(a, n)
            assert render(g) == reference(g), f"a={a} n={n}"

    @pytest.mark.parametrize("n", [300, 500])
    def test_large_n(self, render, reference, a, n):
        g = build(a, n)
        assert render(g) == reference(g)


@pytest.mark.parametrize("a", range(1, 6))
def test_seq_dump_matches_the_bruteforce_reference(a):
    for horizon in range(61):
        assert seq_dump(c_series(a, horizon)) == reference_seq_dump(a, horizon), (
            f"a={a} horizon={horizon}"
        )


@pytest.mark.parametrize("a", range(1, 6))
def test_no_arcs_at_one_vertex(a):
    g = build(a, 1)
    assert to_dot(g) == f"digraph jaco_a{a}_n1 {{\n  v1;\n}}\n"
    assert '"edges": [], ' in to_json(g)
    assert to_csv(g) == "tail,head\n"


def parse_dot(text):
    header, body = text.split("\n", 1)
    assert re.fullmatch(r"digraph jaco_a\d+_n\d+ \{", header)
    assert body.endswith("}\n")
    rows = body[:-2].splitlines()
    if rows == ["  v1;"]:
        return []
    pairs = [re.fullmatch(r"  v(\d+) -> v(\d+);", row) for row in rows]
    assert all(pairs)
    return [(int(m[1]), int(m[2])) for m in pairs]


def parse_csv(text):
    header, *rows = text.splitlines()
    assert header == "tail,head"
    return [tuple(map(int, row.split(","))) for row in rows]


def parse_json(text):
    return [tuple(edge) for edge in json.loads(text)["edges"]]


@pytest.mark.parametrize(
    "render,parse",
    [(to_dot, parse_dot), (to_csv, parse_csv), (to_json, parse_json)],
    ids=["dot", "csv", "json"],
)
@pytest.mark.parametrize("a", range(1, 6))
def test_roundtrip_gives_the_arcs(render, parse, a):
    for n in (*range(1, 40), 97, 150, 299, 300):
        g = build(a, n)
        assert parse(render(g)) == list(arcs(g)), f"a={a} n={n}"
