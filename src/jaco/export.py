"""Deterministic text serializations of graphs and sequence tables.

Every renderer is byte-stable for a given input: arcs are emitted in
lexicographic (tail, head) order, JSON keys in a fixed order, line
endings are a single newline.  Graphs are always rebuilt from (a, n), so
there is no importer.
"""

from __future__ import annotations

import json

from .graph import JacoGraph, arcs, degree_profile, jaconian
from .sequences import SequenceTable

FORMATS = ("dot", "json", "csv")


def to_dot(g: JacoGraph) -> str:
    """Graphviz digraph, one arc per line; a lone v1 is still declared."""
    lines = [f"digraph jaco_a{g.a}_n{g.n} {{"]
    arc_list = list(arcs(g))
    if not arc_list:
        lines.append("  v1;")
    for i, j in arc_list:
        lines.append(f"  v{i} -> v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: JacoGraph) -> str:
    """Single JSON object with arcs, degrees and the Jaconian summary.

    Vertex indices are 1-based; degree arrays are ordered v_1..v_n; hope
    is a [first, last] index pair or null when the Hope range is empty.
    """
    profile = degree_profile(g)
    info = jaconian(g, profile)
    hope = [info.hope_range[0], info.hope_range[-1]] if len(info.hope_range) else None
    payload = {
        "a": g.a,
        "n": g.n,
        "edges": [[i, j] for i, j in arcs(g)],
        "in_degree": list(profile.d_in[1:]),
        "out_degree": list(profile.d_out_finite[1:]),
        "total_degree": list(profile.d_total[1:]),
        "delta": info.delta,
        "jaconian": list(info.jaconian_set),
        "prime": info.prime_index,
        "hope": hope,
    }
    return json.dumps(payload) + "\n"


def to_csv(g: JacoGraph) -> str:
    """Arc list as CSV with a tail,head header."""
    lines = ["tail,head"]
    lines.extend(f"{i},{j}" for i, j in arcs(g))
    return "\n".join(lines) + "\n"


def seq_dump(t: SequenceTable) -> str:
    """Tab-separated sequence table, one row per n from 0 to the horizon."""
    a = t.a
    lines = ["n\tc\td_minus\td_plus\treach"]
    lines.extend(
        f"{n}\t{cn}\t{n - cn}\t{(a - 1) * n + cn}\t{a * n + cn}"
        for n, cn in enumerate(t.c)
    )
    return "\n".join(lines) + "\n"


def render(g: JacoGraph, fmt: str) -> str:
    """Dispatch to one of the graph formats."""
    if fmt == "dot":
        return to_dot(g)
    if fmt == "json":
        return to_json(g)
    if fmt == "csv":
        return to_csv(g)
    raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
