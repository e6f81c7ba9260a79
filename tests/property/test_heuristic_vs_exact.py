"""Property tests comparing the heuristics against the branch-and-bound optimum.

The branch-and-bound solver is an independent exact oracle (it shares no code
path with ``ComputeADP``'s base cases or dynamic programs), so these tests
cross-check both sides:

* on poly-time queries, ``ComputeADP`` and branch-and-bound agree exactly;
* on every query, the heuristics are feasible and never beat the optimum;
* on full CQs the greedy heuristic respects its ``O(log k)`` guarantee
  (Theorem 5).
"""

import math

from hypothesis import HealthCheck, given, settings

from repro.core.adp import ADPSolver
from repro.core.decidability import is_poly_time
from repro.core.exact_search import branch_and_bound_solve
from repro.session import Session

from tests.conftest import query_instance_pairs

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(max_examples=50, **COMMON_SETTINGS)
@given(query_instance_pairs(max_relations=3, max_attributes=3, max_tuples_per_relation=3))
def test_compute_adp_agrees_with_branch_and_bound_on_poly_queries(pair):
    query, database = pair
    if not is_poly_time(query):
        return
    session = Session(database)
    total = session.output_size(query)
    if total == 0:
        return
    solver = ADPSolver()
    for k in (1, max(1, total // 2), total):
        exact = session.solve(query, k, solver=solver)
        oracle = branch_and_bound_solve(query, database, k)
        assert exact.size == oracle.size, (str(query), k)


@settings(max_examples=50, **COMMON_SETTINGS)
@given(query_instance_pairs(max_relations=3, max_attributes=3, max_tuples_per_relation=3))
def test_heuristics_never_beat_branch_and_bound(pair):
    query, database = pair
    session = Session(database)
    total = session.output_size(query)
    if total == 0:
        return
    k = max(1, total // 2)
    optimum = branch_and_bound_solve(query, database, k).size
    for heuristic in ("greedy", "drastic"):
        assert session.solve(query, k, heuristic=heuristic).size >= optimum


@settings(max_examples=40, **COMMON_SETTINGS)
@given(query_instance_pairs(max_relations=3, max_attributes=3, max_tuples_per_relation=3, allow_boolean=False))
def test_greedy_log_k_guarantee_on_full_cqs(pair):
    query, database = pair
    full = query.as_full()
    session = Session(database)
    total = session.output_size(full)
    if total == 0:
        return
    k = max(1, total // 2)
    optimum = branch_and_bound_solve(full, database, k).size
    greedy = session.solve(full, k, heuristic="greedy").size
    harmonic = sum(1.0 / i for i in range(1, k + 1))
    assert greedy <= math.ceil(harmonic * optimum) + 1
