"""Figure 12: BruteForce vs the heuristics on a small Q1 instance (running time).

Paper's claim: even with the increasing-subset-size optimisation, brute force
is orders of magnitude slower than either heuristic and stops scaling almost
immediately, while returning the same quality on tiny inputs (Figure 13).
"""

import pytest

from repro.core.bruteforce import bruteforce_solve
from repro.experiments.harness import target_from_ratio
from repro.session import Session
from repro.workloads.queries import Q1
from repro.workloads.tpch import generate_tpch

SMALL_SIZE = 60
RATIO = 0.1


@pytest.fixture(scope="module")
def small_instance():
    database = generate_tpch(total_tuples=SMALL_SIZE, seed=7)
    k = target_from_ratio(Q1, database, RATIO)
    return database, k


@pytest.mark.parametrize("method", ["bruteforce", "greedy", "drastic"])
def test_fig12_bruteforce_vs_heuristics(benchmark, small_instance, method):
    database, k = small_instance

    session = Session(database)
    if method == "bruteforce":

        def run_bruteforce():
            with session.activate():
                return bruteforce_solve(Q1, database, k, max_candidates=2000)

        solution = benchmark(run_bruteforce)
    else:
        solution = benchmark(lambda: session.solve(Q1, k, heuristic=method))

    benchmark.extra_info.update(
        {
            "figure": "12",
            "method": method,
            "k": k,
            "input_size": database.total_tuples(),
            "solution_size": solution.size,
        }
    )
    assert solution.removed_outputs >= k


# --------------------------------------------------------------------------- #
# Array-backend acceptance: NumPy kernels >= 3x at the largest configured scale
# --------------------------------------------------------------------------- #
#: Largest configured scale for the backend comparison: an NP-hard-leaf
#: projection workload (zipf path family) big enough that the interpreter
#: loop, not allocation noise, dominates the pure-Python engine.
BACKEND_SCALE_R2_TUPLES = 60_000
BACKEND_SCALE_RATIO = 0.1
#: Acceptance floor (locally measured ~4.7x; 3x leaves CI headroom).  A
#: below-floor measurement is re-measured once before failing (shared
#: runners throttle unpredictably), and REPRO_SKIP_BACKEND_ACCEPTANCE=1
#: downgrades the assert to a report.
MIN_BACKEND_SPEEDUP = 3.0


def test_backend_numpy_speedup_at_scale(benchmark):
    """backend="numpy" must beat backend="python" >= 3x, byte-identically.

    End-to-end fresh greedy solve (join + provenance index + greedy scan +
    verification) on the largest configured instance; the deletion sets of
    the two backends are asserted equal, and the packed provenance parity
    is covered exhaustively by tests/property/test_backend_parity.py.
    """
    import time

    from repro.engine.backend import numpy_available
    from repro.query.parser import parse_query
    from repro.session import Session
    from repro.workloads.zipf import generate_zipf_path

    if not numpy_available():
        pytest.skip("numpy not installed: python backend only")

    query = parse_query("Qhard(A) :- R1(A), R2(A, B), R3(B)")
    database = generate_zipf_path(
        r2_tuples=BACKEND_SCALE_R2_TUPLES, alpha=1.1, seed=13
    )
    with Session(database, backend="python") as sizing:
        with sizing.activate():
            k = target_from_ratio(query, database, BACKEND_SCALE_RATIO)

    def fresh_solve(backend):
        with Session(database, backend=backend) as session:
            start = time.perf_counter()
            solution = session.solve(query, k, heuristic="greedy")
            return time.perf_counter() - start, solution

    python_seconds, python_solution = fresh_solve("python")
    numpy_seconds, numpy_solution = fresh_solve("numpy")
    assert numpy_solution.removed == python_solution.removed
    assert numpy_solution.size == python_solution.size

    speedup = python_seconds / numpy_seconds
    if speedup < MIN_BACKEND_SPEEDUP:
        # One retake before failing: a single throttled interval on a
        # shared runner can compress the ratio; take the better of the two.
        python_seconds = min(python_seconds, fresh_solve("python")[0])
        numpy_seconds = min(numpy_seconds, fresh_solve("numpy")[0])
        speedup = python_seconds / numpy_seconds
    benchmark.extra_info.update(
        {
            "figure": "12-backend",
            "r2_tuples": BACKEND_SCALE_R2_TUPLES,
            "k": k,
            "python_ms": round(python_seconds * 1e3, 1),
            "numpy_ms": round(numpy_seconds * 1e3, 1),
            "speedup": round(speedup, 2),
        }
    )
    import os

    if os.environ.get("REPRO_SKIP_BACKEND_ACCEPTANCE") == "1":
        print(f"backend speedup {speedup:.2f}x (acceptance assert skipped)")
    else:
        assert speedup >= MIN_BACKEND_SPEEDUP, (
            f"numpy backend is only {speedup:.2f}x faster than python "
            f"(need >= {MIN_BACKEND_SPEEDUP}x): "
            f"{numpy_seconds * 1e3:.0f}ms vs {python_seconds * 1e3:.0f}ms"
        )

    def steady_state():
        with Session(database, backend="numpy") as session:
            return session.solve(query, k, heuristic="greedy").size

    benchmark.pedantic(steady_state, rounds=1, iterations=1)
