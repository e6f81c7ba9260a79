"""Figure 8: reporting σθQ1 with heuristics (Greedy, Drastic) vs Exact.

Paper's claim: on the (easy) selected query the heuristics are faster than
the exact reporting algorithm while -- on this data distribution -- finding
solutions of the same size (Figure 9 reads the quality off the same runs).
"""

import pytest

from benchmarks.conftest import RATIOS
from repro.core.adp import ADPSolver
from repro.core.selection import solve_with_selection
from repro.session import Session
from repro.workloads.queries import Q1


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("method", ["exact", "greedy", "drastic"])
def test_fig08_selected_q1_methods(benchmark, tpch_selected, ratio, method):
    prepared = tpch_selected[max(tpch_selected)]
    k = max(1, int(ratio * prepared["selected_output"]))

    if method == "exact":
        solution = benchmark(
            lambda: solve_with_selection(
                Q1, prepared["selection"], prepared["database"], k, solver=ADPSolver()
            )
        )
    else:
        session = Session(prepared["filtered"])
        solution = benchmark(lambda: session.solve(Q1, k, heuristic=method))

    benchmark.extra_info.update(
        {
            "figure": "8",
            "method": method,
            "ratio": ratio,
            "k": k,
            "solution_size": solution.size,
        }
    )
    assert solution.removed_outputs >= k
