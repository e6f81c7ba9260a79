"""Figure 9: solution quality on σθQ1 (Exact vs Greedy vs Drastic).

Paper's claim: on this workload the three methods find solutions of the same
size (the heuristics happen to be optimal here); in general the heuristics
can only be worse than Exact.
"""

import pytest

from benchmarks.conftest import RATIOS
from repro.core.adp import ADPSolver
from repro.core.selection import solve_with_selection
from repro.session import Session
from repro.workloads.queries import Q1


@pytest.mark.parametrize("ratio", RATIOS)
def test_fig09_selected_q1_quality(benchmark, tpch_selected, ratio):
    prepared = tpch_selected[min(tpch_selected)]
    k = max(1, int(ratio * prepared["selected_output"]))
    session = Session(prepared["filtered"])

    def run_all_methods():
        exact = solve_with_selection(
            Q1, prepared["selection"], prepared["database"], k, solver=ADPSolver()
        )
        greedy = session.solve(Q1, k, heuristic="greedy")
        drastic = session.solve(Q1, k, heuristic="drastic")
        return exact, greedy, drastic

    exact, greedy, drastic = benchmark(run_all_methods)
    benchmark.extra_info.update(
        {
            "figure": "9",
            "ratio": ratio,
            "k": k,
            "exact_size": exact.size,
            "greedy_size": greedy.size,
            "drastic_size": drastic.size,
        }
    )
    # Exact is optimal; heuristics can only match or exceed it.
    assert exact.size <= greedy.size
    assert exact.size <= drastic.size
