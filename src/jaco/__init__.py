"""Jaco graphs J_n(a): exact sequences, construction, verification.

A Jaco graph places an arc from v_i to v_j (i < j) exactly when
(a+1)*i - d_in(v_i) >= j.  Everything about it reduces to one integer
series, computed here exactly and cross-checked against a closed form
over generalized Zeckendorf digit expansions.

Rules that hold in every module:

- Arithmetic is exact: Python ints widen as needed, so path counts, which
  pass 64 bits well before n = 10000, are exact.
- The records, SequenceTable, JacoGraph, DegreeProfile, JaconianInfo,
  PathTable, UniquenessReport, ConjectureReport, ClaimResult,
  VerificationReport and the claim registry's _Claim, are immutable named
  tuples, none a dataclass.  They compare, unpack and index as tuples
  (seq, n = g), _replace copies one with a field changed, and assigning or
  deleting a field raises AttributeError.  A derived column, such as
  SequenceTable.reach, is computed on each read, not kept.
- Modules read each other's routes and records through the module, as
  graph.build(a, n), not through a copy made by "from .graph import build".
  So a route has one binding, on its defining module, and a fault planted
  there once, as monkeypatch.setattr(jaco.graph, "jaconian", faulty),
  reaches every claim, renderer and route that reads it.  The re-exports
  below and analysis.edge_count_direct are the only copies: patching
  jaco.jaconian reaches nothing inside the package.
"""

from .analysis import (
    TheoremViolationError,
    VerificationReport,
    edge_count_recursive,
    edge_count_theorem,
    milestone_delta,
    render_report,
    verify_suite,
)
from .export import seq_dump, to_csv, to_dot, to_json
from .graph import (
    DegreeProfile,
    JacoGraph,
    JaconianInfo,
    arcs,
    build,
    degree_profile,
    edge_count_direct,
    hope_is_complete,
    in_neighbors,
    jaconian,
    out_neighbors,
)
from .paths import (
    ConjectureReport,
    PathTable,
    UniquenessReport,
    conjecture_scan,
    distances,
    path_table,
    psi_oracle,
    render_conjecture,
    uniqueness_check,
)
from .sequences import (
    SequenceTable,
    ZeckDigitError,
    bettina_dplus,
    c_beatty,
    c_closed,
    c_series,
    tau,
    zeck_decode,
    zeck_encode,
)

__all__ = [
    "ConjectureReport",
    "DegreeProfile",
    "JacoGraph",
    "JaconianInfo",
    "PathTable",
    "SequenceTable",
    "TheoremViolationError",
    "UniquenessReport",
    "VerificationReport",
    "ZeckDigitError",
    "arcs",
    "bettina_dplus",
    "build",
    "c_beatty",
    "c_closed",
    "c_series",
    "conjecture_scan",
    "degree_profile",
    "distances",
    "edge_count_direct",
    "edge_count_recursive",
    "edge_count_theorem",
    "hope_is_complete",
    "in_neighbors",
    "jaconian",
    "milestone_delta",
    "out_neighbors",
    "path_table",
    "psi_oracle",
    "render_conjecture",
    "render_report",
    "seq_dump",
    "tau",
    "to_csv",
    "to_dot",
    "to_json",
    "uniqueness_check",
    "verify_suite",
    "zeck_decode",
    "zeck_encode",
]
