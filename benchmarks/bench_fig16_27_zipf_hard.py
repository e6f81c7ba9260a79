"""Figures 16-19 and 24-27: Qpath (hard) on Zipfian data.

Paper's claims:

* running time and solution size grow with the input size and with ρ;
* for fixed input size and ρ, the solution size *decreases* as the skew α
  increases (a few heavy values remove many outputs at once);
* Drastic's running time is insensitive to α (profits are computed once),
  while Greedy's shrinks with the solution size.
"""

import pytest

from benchmarks.conftest import solve_once
from repro.core.adp import ADPSolver
from repro.engine.evaluate import evaluate_in_context as evaluate
from repro.session import Session
from repro.workloads.queries import QPATH_EXP

ALPHAS = (0.0, 0.25, 0.5, 1.0)
RATIO = 0.5


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("method", ["greedy", "drastic"])
def test_fig16_27_zipf_qpath(benchmark, zipf_instances, alpha, method):
    database = zipf_instances[alpha]
    total = evaluate(QPATH_EXP, database).output_count()
    k = max(1, int(RATIO * total))
    solver = ADPSolver(heuristic=method)

    solution = solve_once(
        benchmark, solver, QPATH_EXP, database, k,
        figure="16-19/24-27", alpha=alpha, method=method, output_size=total,
    )
    assert solution.removed_outputs >= k


def test_fig16_27_skew_reduces_solution_size(benchmark, zipf_instances):
    """The quality series of Figures 17/19/25/27: size decreases with alpha."""
    solver = ADPSolver(heuristic="greedy")
    sessions = {alpha: Session(database) for alpha, database in zipf_instances.items()}

    def sweep():
        sizes = {}
        for alpha, session in sessions.items():
            k = max(1, int(RATIO * session.output_size(QPATH_EXP)))
            sizes[alpha] = session.solve(QPATH_EXP, k, solver=solver).size
        return sizes

    sizes = benchmark(sweep)
    benchmark.extra_info.update({"figure": "17/19/25/27", "sizes": sizes})
    assert sizes[1.0] <= sizes[0.5] <= sizes[0.0] + 1
