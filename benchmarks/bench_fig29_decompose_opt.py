"""Figure 29: Decompose combination strategies on Q8.

Paper's claim: enumerating all partitions at once is the slowest, pairwise
combination is better, and the improved dynamic program is the fastest --
all three return the same (optimal) objective.
"""

import pytest

from repro.core.adp import ADPSolver
from repro.core.decompose import DecomposeStrategy
from repro.session import Session
from repro.workloads.queries import Q8
from repro.workloads.synthetic import generate_q8_instance

RATIO = 0.1

STRATEGIES = {
    "full-enumeration": DecomposeStrategy.FULL_ENUMERATION,
    "pairwise": DecomposeStrategy.PAIRWISE,
    "improved-dp": DecomposeStrategy.IMPROVED_DP,
}


@pytest.fixture(scope="module")
def q8_instance():
    database = generate_q8_instance(unary_tuples=8, binary_tuples=16, seed=29)
    total = Session(database).output_size(Q8)
    return database, max(1, int(RATIO * total))


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_fig29_decompose_strategies(benchmark, q8_instance, strategy):
    database, k = q8_instance
    solver = ADPSolver(decompose_strategy=STRATEGIES[strategy])

    session = Session(database)
    solution = benchmark(lambda: session.solve(Q8, k, solver=solver))
    benchmark.extra_info.update(
        {"figure": "29", "strategy": strategy, "k": k, "solution_size": solution.size}
    )
    assert solution.optimal


def test_fig29_strategies_agree_on_objective(q8_instance):
    database, k = q8_instance
    sizes = {
        name: Session(database).solve(Q8, k, decompose_strategy=strategy).size
        for name, strategy in STRATEGIES.items()
    }
    assert len(set(sizes.values())) == 1, sizes
