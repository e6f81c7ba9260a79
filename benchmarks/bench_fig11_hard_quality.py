"""Figure 11: solution quality of Greedy vs Drastic on the NP-hard Q1.

Paper's claim: on this data distribution the two heuristics remove (almost)
the same number of input tuples; quality grows with ρ.
"""

import pytest

from benchmarks.conftest import RATIOS
from repro.core.adp import ratio_target
from repro.session import Session
from repro.workloads.queries import Q1


@pytest.mark.parametrize("ratio", RATIOS)
def test_fig11_q1_quality(benchmark, tpch_instances, ratio):
    database = tpch_instances[min(tpch_instances)]
    session = Session(database)
    k = ratio_target(session.output_size(Q1), ratio)

    def run_both():
        greedy = session.solve(Q1, k, heuristic="greedy")
        drastic = session.solve(Q1, k, heuristic="drastic")
        return greedy, drastic

    greedy, drastic = benchmark(run_both)
    benchmark.extra_info.update(
        {
            "figure": "11",
            "ratio": ratio,
            "k": k,
            "greedy_size": greedy.size,
            "drastic_size": drastic.size,
        }
    )
    assert greedy.removed_outputs >= k
    assert drastic.removed_outputs >= k
    # The two heuristics land in the same ballpark on this distribution.
    assert drastic.size <= 3 * max(1, greedy.size)
    assert greedy.size <= 3 * max(1, drastic.size)
