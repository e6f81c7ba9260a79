"""Shared helpers for the figure benchmarks.

Every module in this directory regenerates one figure (or one group of
figures sharing a workload) of the paper's evaluation section with
``pytest-benchmark``:

* the *benchmark time* is the running time of the method(s) the figure plots
  (scaled-down inputs, pure Python -- absolute numbers differ from the
  paper's Java+PostgreSQL setup);
* each benchmark also records the *quality* (solution size) in
  ``benchmark.extra_info`` so quality figures can be read off the same run;
* assertions at the end of each benchmark check the figure's qualitative
  claim (who wins, how quality orders), so the benchmarks double as
  regression tests for the reproduced shapes.

Run with:  pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.core.adp import ADPSolver
from repro.core.selection import Selection
from repro.engine.evaluate import evaluate_in_context as evaluate
from repro.session import Session
from repro.workloads.queries import Q1
from repro.workloads.snap import EgoNetworkConfig, generate_ego_network
from repro.workloads.tpch import SELECTED_PART_KEY, generate_tpch
from repro.workloads.zipf import generate_zipf_path

#: Input sizes used by the scaled-down TPC-H benchmarks (the paper sweeps
#: 1k .. 10M; pure Python keeps the same *relative* spread at smaller scale).
TPCH_SIZES = (200, 600)

#: Removal ratios used throughout the paper.
RATIOS = (0.1, 0.5)


@pytest.fixture(scope="session")
def tpch_instances():
    """One TPC-H-like database per benchmark input size."""
    return {size: generate_tpch(total_tuples=size, seed=7) for size in TPCH_SIZES}


@pytest.fixture(scope="session")
def tpch_selected(tpch_instances):
    """The σ[PK = 13370] variant of every TPC-H instance plus its output size."""
    selection = Selection.equals({"PK": SELECTED_PART_KEY})
    prepared = {}
    for size, database in tpch_instances.items():
        filtered = selection.apply(Q1, database)
        prepared[size] = {
            "database": database,
            "filtered": filtered,
            "selection": selection,
            "selected_output": evaluate(Q1, filtered).output_count(),
        }
    return prepared


@pytest.fixture(scope="session")
def ego_network():
    """The scaled-down synthetic ego network shared by the Q2..Q5 benchmarks."""
    return generate_ego_network(EgoNetworkConfig(nodes=48, seed=414))


@pytest.fixture(scope="session")
def zipf_instances():
    """Zipfian path instances keyed by the skew parameter alpha."""
    return {
        alpha: generate_zipf_path(r2_tuples=300, alpha=alpha, seed=13)
        for alpha in (0.0, 0.25, 0.5, 1.0)
    }


def solve_once(benchmark, solver: ADPSolver, query, database, k, **extra_info):
    """Benchmark one solver call (on a warm session) and record quality metadata."""
    session = Session(database)
    solution = benchmark(lambda: session.solve(query, k, solver=solver))
    benchmark.extra_info.update(
        {
            "k": k,
            "solution_size": solution.size,
            "optimal": solution.optimal,
            "removed_outputs": solution.removed_outputs,
            **extra_info,
        }
    )
    return solution
