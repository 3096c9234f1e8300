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

from . import analysis, export, graph, paths, sequences
from .analysis import *
from .export import *
from .graph import *
from .paths import *
from .sequences import *

# each module's __all__ is its public surface; this one is their union
__all__ = []
__all__ += sequences.__all__
__all__ += graph.__all__
__all__ += analysis.__all__
__all__ += paths.__all__
__all__ += export.__all__
