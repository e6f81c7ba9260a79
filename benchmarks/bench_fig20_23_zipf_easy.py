"""Figures 20-23: the singleton query Q6 (easy) on Zipfian data, Exact.

Paper's claims: the exact (Singleton) algorithm is fast regardless of ρ, its
running time is dominated by the profit computation (so it barely depends on
the solution size), and the solution size decreases with the skew α.
"""

import pytest

from benchmarks.conftest import solve_once
from repro.core.adp import ADPSolver
from repro.engine.evaluate import evaluate_in_context as evaluate
from repro.session import Session
from repro.workloads.queries import Q6

ALPHAS = (0.0, 1.0)
RATIOS = (0.1, 0.75)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("ratio", RATIOS)
def test_fig20_23_q6_exact(benchmark, zipf_instances, alpha, ratio):
    database = zipf_instances[alpha].restricted_to(("R1", "R2"))
    total = evaluate(Q6, database).output_count()
    k = max(1, int(ratio * total))
    solver = ADPSolver()

    solution = solve_once(
        benchmark, solver, Q6, database, k,
        figure="20-23", alpha=alpha, ratio=ratio, output_size=total,
    )
    assert solution.optimal


def test_fig21_23_quality_decreases_with_skew(benchmark, zipf_instances):
    solver = ADPSolver()
    sessions = {
        alpha: Session(zipf_instances[alpha].restricted_to(("R1", "R2")))
        for alpha in ALPHAS
    }

    def sweep():
        sizes = {}
        for alpha, session in sessions.items():
            k = max(1, int(0.5 * session.output_size(Q6)))
            sizes[alpha] = session.solve(Q6, k, solver=solver).size
        return sizes

    sizes = benchmark(sweep)
    benchmark.extra_info.update({"figure": "21/23", "sizes": sizes})
    assert sizes[1.0] <= sizes[0.0]
