"""Figure 7: exact algorithm on σ[PK=13370] Q1 -- counting vs reporting.

Paper's claim: the exact algorithm scales with the input size and with ρ, and
the counting version is consistently cheaper than the reporting version
(it only manipulates numbers inside the dynamic programs).
"""

import pytest

from benchmarks.conftest import RATIOS, TPCH_SIZES
from repro.core.adp import ADPSolver, ratio_target
from repro.core.selection import solve_with_selection
from repro.workloads.queries import Q1


@pytest.mark.parametrize("size", TPCH_SIZES)
@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("mode", ["counting", "reporting"])
def test_fig07_exact_selected_q1(benchmark, tpch_selected, size, ratio, mode):
    prepared = tpch_selected[size]
    k = ratio_target(prepared["selected_output"], ratio)
    solver = ADPSolver(counting_only=(mode == "counting"))

    solution = benchmark(
        lambda: solve_with_selection(
            Q1, prepared["selection"], prepared["database"], k, solver=solver
        )
    )

    benchmark.extra_info.update(
        {
            "figure": "7",
            "input_size": prepared["database"].total_tuples(),
            "ratio": ratio,
            "mode": mode,
            "k": k,
            "solution_size": solution.size,
        }
    )
    # The selection makes the query poly-time (Lemma 12): the answer is exact.
    assert solution.optimal
    assert solution.size >= 1
