"""Figure 13: BruteForce vs the heuristics on a small Q1 instance (quality).

Paper's claim: on instances small enough for brute force, the heuristics find
solutions of the same (optimal) size.
"""

import pytest

from repro.core.bruteforce import bruteforce_solve
from repro.experiments.harness import target_from_ratio
from repro.session import Session
from repro.workloads.queries import Q1
from repro.workloads.tpch import generate_tpch


@pytest.mark.parametrize("size", [50, 70])
def test_fig13_quality_matches_optimum(benchmark, size):
    database = generate_tpch(total_tuples=size, seed=7)
    k = target_from_ratio(Q1, database, 0.1)

    session = Session(database)

    def run_all():
        with session.activate():
            optimum = bruteforce_solve(Q1, database, k, max_candidates=2000)
        greedy = session.solve(Q1, k, heuristic="greedy")
        drastic = session.solve(Q1, k, heuristic="drastic")
        return optimum, greedy, drastic

    optimum, greedy, drastic = benchmark(run_all)
    benchmark.extra_info.update(
        {
            "figure": "13",
            "input_size": database.total_tuples(),
            "k": k,
            "bruteforce_size": optimum.size,
            "greedy_size": greedy.size,
            "drastic_size": drastic.size,
        }
    )
    assert optimum.optimal
    assert greedy.size >= optimum.size
    assert drastic.size >= optimum.size
    # The paper reports coinciding quality at this scale; allow a tiny slack.
    assert greedy.size <= optimum.size + 1
    assert drastic.size <= optimum.size + 1
