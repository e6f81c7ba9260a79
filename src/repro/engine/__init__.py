"""Query evaluation engine.

The paper's implementation evaluates queries (and re-evaluates them after
candidate deletions) through PostgreSQL.  This subpackage is the equivalent
substrate built from scratch:

* :mod:`repro.engine.evaluate` -- natural-join evaluation of a self-join-free
  CQ with projection, returning output tuples *and* their witnesses
  (which-provenance); the public :class:`QueryResult`/:class:`Witness` API is
  a thin view over the columnar core;
* :mod:`repro.engine.columnar` -- the columnar witness core: per-relation
  tuple interning, a batch left-deep hash join over integer ID columns, and
  packed per-atom provenance columns;
* :mod:`repro.engine.cache` -- memoization of evaluation results keyed by
  (query canonical form, database version); owned per
  :class:`~repro.engine.evaluate.EngineContext` (i.e. per session) since the
  Session redesign;
* :mod:`repro.engine.delta` -- delta semijoins: derive the post-deletion
  result from cached packed provenance in one column scan (the engine behind
  ``Session.what_if`` / ``Session.apply_deletions``);
* :mod:`repro.engine.provenance` -- an incremental provenance index (dense
  integer arrays) used by the greedy heuristics and by solution verification;
* :mod:`repro.engine.semijoin` -- semi-join reduction (dangling-tuple
  removal);
* :mod:`repro.engine.flow` -- max-flow / min-cut (Edmonds--Karp) used by the
  Boolean (resilience) base case of ``ComputeADP``;
* :mod:`repro.engine.setcover` -- partial set cover (greedy and primal-dual)
  used by the approximation algorithms for full CQs;
* :mod:`repro.engine.backend` -- the array backends: pure-Python kernels
  (always available, the parity oracle) and the optional vectorized NumPy
  kernels selected via ``Session(backend="auto"|"python"|"numpy")``.
"""

from repro.engine.backend import (
    numpy_available,
    python_backend,
    resolve_backend,
)
from repro.engine.cache import EvaluationCache
from repro.engine.columnar import ColumnarProvenance, RelationIndex
from repro.engine.delta import delta_filter_provenance, delta_filter_result
from repro.engine.evaluate import (
    EngineContext,
    QueryResult,
    Witness,
    evaluate_columnar,
    evaluate_in_context,
    join_order_plan,
    use_context,
)
from repro.engine.provenance import ProvenanceIndex
from repro.engine.semijoin import remove_dangling_tuples, semijoin_reduce
from repro.engine.flow import FlowNetwork
from repro.engine.setcover import (
    PartialSetCoverInstance,
    greedy_partial_cover,
    primal_dual_partial_cover,
    sets_from_packed_provenance,
)

__all__ = [
    "QueryResult",
    "Witness",
    "evaluate_in_context",
    "evaluate_columnar",
    "join_order_plan",
    "EngineContext",
    "use_context",
    "EvaluationCache",
    "ColumnarProvenance",
    "RelationIndex",
    "delta_filter_provenance",
    "delta_filter_result",
    "ProvenanceIndex",
    "remove_dangling_tuples",
    "semijoin_reduce",
    "FlowNetwork",
    "PartialSetCoverInstance",
    "greedy_partial_cover",
    "primal_dual_partial_cover",
    "sets_from_packed_provenance",
    "numpy_available",
    "python_backend",
    "resolve_backend",
]
