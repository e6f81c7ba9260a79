"""Query evaluation engine.

The paper's implementation evaluates queries (and re-evaluates them after
candidate deletions) through PostgreSQL.  This subpackage is the equivalent
substrate built from scratch:

* :mod:`repro.engine.evaluate` -- natural-join evaluation of a self-join-free
  CQ with projection, returning output tuples *and* their witnesses
  (which-provenance);
* :mod:`repro.engine.columnar` -- the columnar witness core: per-relation
  tuple interning, a batch left-deep hash join over integer ID columns, and
  the :class:`QueryResult` holding packed per-atom provenance columns (with
  a lazy row-style :class:`Witness` view);
* :mod:`repro.engine.cache` -- memoization of evaluation results and solver
  cost curves keyed by (query canonical form, database version, ...); owned
  per :class:`~repro.engine.evaluate.EngineContext` (i.e. per session);
* :mod:`repro.engine.delta` -- delta semijoins: derive the post-deletion
  result from cached packed provenance in one column scan (the engine behind
  ``Session.what_if`` / ``Session.apply_deletions``);
* :mod:`repro.engine.provenance` -- an incremental provenance index over
  dense integer ref IDs, used by the greedy heuristics and the full-CQ
  approximations of Theorem 5;
* :mod:`repro.engine.flow` -- max-flow / min-cut (Edmonds--Karp) used by the
  Boolean (resilience) base case of ``ComputeADP``;
* :mod:`repro.engine.backend` -- the array backends: pure-Python kernels
  (always available, the parity oracle) and the optional vectorized NumPy
  kernels selected via ``Session(backend="auto"|"python"|"numpy")``.
"""

from repro.engine.backend import (
    numpy_available,
    python_backend,
    resolve_backend,
)
from repro.engine.cache import CurveCache, EvaluationCache
from repro.engine.columnar import QueryResult, RelationIndex, Witness
from repro.engine.delta import delta_filter_result
from repro.engine.evaluate import (
    EngineContext,
    evaluate_columnar,
    evaluate_in_context,
    join_order_plan,
    use_context,
)
from repro.engine.provenance import ProvenanceIndex
from repro.engine.flow import FlowNetwork

__all__ = [
    "QueryResult",
    "Witness",
    "evaluate_in_context",
    "evaluate_columnar",
    "join_order_plan",
    "EngineContext",
    "use_context",
    "CurveCache",
    "EvaluationCache",
    "RelationIndex",
    "delta_filter_result",
    "ProvenanceIndex",
    "FlowNetwork",
    "numpy_available",
    "python_backend",
    "resolve_backend",
]
