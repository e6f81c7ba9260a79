"""Figure 10: running time of Greedy vs Drastic on the NP-hard Q1.

Paper's claim: Drastic computes tuple profits once per relation and is
therefore faster than Greedy (which recomputes profits after every removal),
with the gap growing with ρ and the input size.
"""

import pytest

from benchmarks.conftest import RATIOS, TPCH_SIZES, solve_once
from repro.core.adp import ADPSolver, ratio_target
from repro.engine.evaluate import evaluate_in_context as evaluate
from repro.workloads.queries import Q1


@pytest.mark.parametrize("size", TPCH_SIZES)
@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("method", ["greedy", "drastic"])
def test_fig10_q1_heuristics(benchmark, tpch_instances, size, ratio, method):
    database = tpch_instances[size]
    total = evaluate(Q1, database).output_count()
    k = ratio_target(total, ratio)
    solver = ADPSolver(heuristic=method)

    solution = solve_once(
        benchmark, solver, Q1, database, k,
        figure="10", method=method, ratio=ratio, input_size=database.total_tuples(),
    )
    assert solution.removed_outputs >= k
    assert not solution.optimal
