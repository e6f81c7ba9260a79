"""Property-based tests of the solvers on random queries and instances.

For random (query, small instance) pairs:

* every method returns a *feasible* solution (verified against a fresh
  re-evaluation of the query);
* on poly-time queries ``ComputeADP`` matches the brute-force optimum;
* no method ever returns a smaller deletion set than brute force;
* the optimum is monotone in ``k``;
* counting and reporting modes agree on the objective.
"""


from hypothesis import HealthCheck, given, settings

from repro.core.adp import ADPSolver
from repro.core.bruteforce import bruteforce_solve
from repro.core.decidability import is_poly_time
from repro.session import Session

from tests.conftest import query_instance_pairs

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(max_examples=80, **COMMON_SETTINGS)
@given(query_instance_pairs(max_relations=3, max_attributes=3, max_tuples_per_relation=3))
def test_solutions_are_feasible(pair):
    query, database = pair
    session = Session(database)
    total = session.output_size(query)
    if total == 0:
        return
    solver = ADPSolver()
    for k in (1, max(1, total // 2), total):
        solution = session.solve(query, k, solver=solver)
        assert solution.removed_outputs >= k
        assert solution.verify(database) >= k
        assert len(solution.removed) == solution.size


@settings(max_examples=60, **COMMON_SETTINGS)
@given(query_instance_pairs(max_relations=3, max_attributes=3, max_tuples_per_relation=3))
def test_exact_solver_matches_bruteforce_on_poly_queries(pair):
    query, database = pair
    if not is_poly_time(query):
        return
    session = Session(database)
    total = session.output_size(query)
    if total == 0:
        return
    solver = ADPSolver()
    for k in range(1, total + 1):
        solution = session.solve(query, k, solver=solver)
        optimum = bruteforce_solve(query, database, k, max_candidates=40)
        assert solution.optimal
        assert solution.size == optimum.size, (str(query), k)


@settings(max_examples=60, **COMMON_SETTINGS)
@given(query_instance_pairs(max_relations=3, max_attributes=3, max_tuples_per_relation=3))
def test_no_method_beats_bruteforce(pair):
    query, database = pair
    session = Session(database)
    total = session.output_size(query)
    if total == 0:
        return
    k = max(1, total // 2)
    optimum = bruteforce_solve(query, database, k, max_candidates=40).size
    for solver in (ADPSolver(), ADPSolver(heuristic="drastic")):
        assert session.solve(query, k, solver=solver).size >= optimum


@settings(max_examples=60, **COMMON_SETTINGS)
@given(query_instance_pairs(max_relations=3, max_attributes=3, max_tuples_per_relation=3))
def test_objective_is_monotone_in_k(pair):
    query, database = pair
    session = Session(database)
    total = session.output_size(query)
    if total == 0:
        return
    solver = ADPSolver()
    sizes = [session.solve(query, k, solver=solver).size for k in range(1, total + 1)]
    assert sizes == sorted(sizes)


@settings(max_examples=50, **COMMON_SETTINGS)
@given(query_instance_pairs(max_relations=3, max_attributes=3, max_tuples_per_relation=3))
def test_counting_and_reporting_agree(pair):
    query, database = pair
    session = Session(database)
    total = session.output_size(query)
    if total == 0:
        return
    k = max(1, total // 2)
    reporting = session.solve(query, k)
    counting = session.solve(query, k, counting_only=True)
    assert counting.size == reporting.size
    assert counting.removed == frozenset()


@settings(max_examples=50, **COMMON_SETTINGS)
@given(query_instance_pairs(max_relations=3, max_attributes=3, max_tuples_per_relation=4))
def test_removing_everything_is_always_enough(pair):
    query, database = pair
    result = Session(database).evaluate(query)
    total = result.output_count()
    if total == 0:
        return
    assert result.outputs_removed_by(result.participating_refs()) == total
