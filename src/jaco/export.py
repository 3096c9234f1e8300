"""Deterministic text serializations of graphs and sequence tables.

Every renderer is byte-stable for a given input: arcs are emitted in
lexicographic (tail, head) order, JSON keys in a fixed order, line
endings are a single newline.  Graphs are always rebuilt from (a, n), so
there is no importer.  Each renderer returns its whole text.
"""

from __future__ import annotations

__all__ = ["to_dot", "to_json", "to_csv", "seq_dump"]

from . import graph, sequences

FORMATS = ("dot", "json", "csv")  # each renders through to_<format>


def _arc_pieces(g: graph.JacoGraph, tail: str, end: str, gap: str = "") -> list[str]:
    """Pieces whose join is every arc (i, j) as tail % i + str(j) + end,
    joined by gap, in order.

    Each tail with arcs gives three pieces: tail % i, the heads i+1..r_i
    (a slice of the names list) joined by end + gap + tail % i, and end;
    one gap piece sits between tails.  No per-tail block or body string
    is built, so the caller's one join is the only copy of the text.
    """
    names = list(map(str, range(g.n + 1)))
    pieces: list[str] = []
    for i, r in enumerate(graph._last_heads(g), 1):
        if r > i:
            opening = tail % i
            if pieces:
                pieces.append(gap)
            pieces += (opening, (end + gap + opening).join(names[i + 1 : r + 1]), end)
    return pieces


def to_dot(g: graph.JacoGraph) -> str:
    """Graphviz digraph, one arc per line; a lone v1 is still declared."""
    pieces = _arc_pieces(g, "  v%d -> v", ";\n") or ["  v1;\n"]
    return "".join([f"digraph jaco_a{g.a}_n{g.n} {{\n", *pieces, "}\n"])


def to_json(g: graph.JacoGraph) -> str:
    """Single JSON object with arcs, degrees and the Jaconian summary.

    Vertex indices are 1-based; degree arrays are ordered v_1..v_n; hope
    is a [first, last] index pair or null when the Hope range is empty.
    The edges array is joined here in json.dumps' default ", " style; the
    rest goes through json.dumps.
    """
    import json  # here, not at the top: only this renderer needs it

    profile = graph.degree_profile(g)
    info = graph.jaconian(g)
    hope = [info.hope_range[0], info.hope_range[-1]] if len(info.hope_range) else None
    before = json.dumps({"a": g.a, "n": g.n})
    after = json.dumps({
        "in_degree": list(profile.d_in[1:]),
        "out_degree": list(profile.d_out_finite[1:]),
        "total_degree": list(profile.d_total[1:]),
        "delta": info.delta,
        "jaconian": list(info.jaconian_set),
        "prime": info.prime_index,
        "hope": hope,
    })
    edges = _arc_pieces(g, "[%d, ", "]", ", ")
    return "".join([f'{before[:-1]}, "edges": [', *edges, f"], {after[1:]}\n"])


def to_csv(g: graph.JacoGraph) -> str:
    """Arc list as CSV with a tail,head header."""
    return "".join(["tail,head\n", *_arc_pieces(g, "%d,", "\n")])


_BLOCK = 2048  # lines per block in _joined


def _joined(start: int, stop: int, block, head: str = "", tail: str = "") -> str:
    """head, then block(lo, hi) for ascending blocks of lines start..stop-1,
    then tail, as one string.

    Each block covers _BLOCK lines (the last may be short) and is built in
    order, so block may read a shared iterator.  Only one block's pieces
    are alive at once besides the joined blocks: no string per line
    outlives its block.
    """
    blocks = (block(lo, min(lo + _BLOCK, stop)) for lo in range(start, stop, _BLOCK))
    return "".join([head, *blocks, tail])


def seq_dump(t: sequences.SequenceTable) -> str:
    """Tab-separated sequence table, one row per n of the table, from 0."""
    a, c = t.a, t.c

    def rows(lo: int, hi: int) -> str:
        return "".join([
            f"{n}\t{cn}\t{n - cn}\t{(a - 1) * n + cn}\t{a * n + cn}\n"
            for n, cn in zip(range(lo, hi), c[lo:hi])
        ])

    return _joined(0, len(c), rows, head="n\tc\td_minus\td_plus\treach\n")
