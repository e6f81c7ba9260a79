"""Figure 28: universal-attribute strategies on Q7.

Paper's claim: removing the universal attributes one by one is the slowest,
removing them as one combined attribute is faster, and the Singleton
algorithm (a single sort) is the fastest -- all three return the same
(optimal) objective.
"""

import pytest

from repro.core.adp import ADPSolver
from repro.core.universe import UniverseStrategy
from repro.session import Session
from repro.workloads.queries import Q7
from repro.workloads.synthetic import generate_q7_instance

RATIO = 0.5

STRATEGIES = {
    "one-by-one": dict(use_singleton=False, universe_strategy=UniverseStrategy.ONE_BY_ONE),
    "combined": dict(use_singleton=False, universe_strategy=UniverseStrategy.COMBINED),
    "singleton": dict(use_singleton=True),
}


@pytest.fixture(scope="module")
def q7_instance():
    database = generate_q7_instance(tuples_per_relation=60, domain=25, seed=28)
    total = Session(database).output_size(Q7)
    return database, max(1, int(RATIO * total))


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_fig28_universal_attribute_strategies(benchmark, q7_instance, strategy):
    database, k = q7_instance
    solver = ADPSolver(**STRATEGIES[strategy])

    session = Session(database)
    solution = benchmark(lambda: session.solve(Q7, k, solver=solver))
    benchmark.extra_info.update(
        {"figure": "28", "strategy": strategy, "k": k, "solution_size": solution.size}
    )
    assert solution.optimal


def test_fig28_strategies_agree_on_objective(q7_instance):
    database, k = q7_instance
    sizes = {
        name: Session(database).solve(Q7, k, **options).size
        for name, options in STRATEGIES.items()
    }
    assert len(set(sizes.values())) == 1, sizes
