"""Worker-scaling benchmark for ``solve_many`` group dispatch.

``Session(db, workers=N)`` sends the distinct hard-leaf query groups of a
``solve_many`` batch to a persistent pool of N worker processes; every
evaluation stays on the serial columnar join path.  Workload: the Figure 12
family at service scale -- the TPC-H-like instance solved in Figure 12,
grown to a few thousand tuples, serving a mixed ``solve_many`` batch of Q1
plus its projection variants (the "many tenants, one database" shape group
dispatch targets).  The same batch runs on 1, 2 and 4 workers; per-query
results must match the serial engine exactly, and on a multi-core runner
the 4-worker batch is expected to reach the >= 2x acceptance speedup (recorded in
``extra_info["speedup_w4"]``; asserted only when the machine actually has
the cores, so single-core CI still validates correctness).

Run with:  pytest benchmarks/bench_parallel.py --benchmark-only
"""

import os
import time

import pytest

from repro.query.parser import parse_query
from repro.session import Session
from repro.workloads.queries import Q1
from repro.workloads.tpch import generate_tpch

#: Figure 12 instance, scaled up so per-solve work dominates dispatch cost.
TOTAL_TUPLES = 2400
SEED = 7

#: The acceptance criterion: 4 workers, >= 2x over the serial batch.
MIN_SPEEDUP_W4 = 2.0

#: Distinct query groups of the batch (each dispatches to its own worker).
#: All are hard-leaf projections of the Q1 join -- the group shape
#: ``solve_many`` dispatches to workers (recursive poly-time groups stay
#: parent-side to preserve serial-identical tie-breaking).
_Q1_BODY = "Supplier(NK, SK), PartSupp(SK, PK), LineItem(OK, PK)"
BATCH_QUERIES = (
    Q1,
    parse_query(f"QA(NK, OK) :- {_Q1_BODY}"),
    parse_query(f"QB(SK, PK) :- {_Q1_BODY}"),
    parse_query(f"QC(NK, PK, OK) :- {_Q1_BODY}"),
    parse_query(f"QD(SK, OK) :- {_Q1_BODY}"),
    parse_query(f"QE(NK, SK, OK) :- {_Q1_BODY}"),
)


def batch_requests():
    return [(query, k) for query in BATCH_QUERIES for k in (2, 5)]


@pytest.fixture(scope="module")
def fig12_database():
    return generate_tpch(total_tuples=TOTAL_TUPLES, seed=SEED)


def run_batch(database, workers):
    """One timed ``solve_many`` batch on a session with N workers.

    Every worker count gets the same treatment -- warm-up batch (interning,
    prepared plans, pool start + database shipping where applicable), then
    ``clear_cache`` (which also reaches worker-held result caches) -- so
    the scaling curve compares steady-state joins against steady-state
    joins, not a cold serial run against warm workers.
    """
    with Session(database, workers=workers) as session:
        session.solve_many(batch_requests(), heuristic="greedy")  # warm up
        session.clear_cache()
        start = time.perf_counter()
        solutions = session.solve_many(batch_requests(), heuristic="greedy")
        elapsed = time.perf_counter() - start
    return solutions, elapsed


def test_worker_scaling_curve(benchmark, fig12_database):
    """1/2/4-worker scaling of the Figure 12 service batch."""
    timings = {}
    solutions = {}
    for workers in (1, 2, 4):
        solutions[workers], timings[workers] = run_batch(fig12_database, workers)

    # Correctness before speed: every worker count returns the serial answers.
    reference = solutions[1]
    for workers in (2, 4):
        assert [s.size for s in solutions[workers]] == [s.size for s in reference]
        assert [s.removed for s in solutions[workers]] == [
            s.removed for s in reference
        ]

    speedup_w2 = timings[1] / timings[2]
    speedup_w4 = timings[1] / timings[4]
    benchmark.extra_info.update(
        {
            "figure": "parallel-scaling",
            "workload": f"tpch[{TOTAL_TUPLES}] x {len(batch_requests())} requests",
            "cpus": os.cpu_count(),
            "seconds_w1": round(timings[1], 4),
            "seconds_w2": round(timings[2], 4),
            "seconds_w4": round(timings[4], 4),
            "speedup_w2": round(speedup_w2, 2),
            "speedup_w4": round(speedup_w4, 2),
        }
    )
    # The acceptance assert arms on >=4-core machines; set
    # REPRO_BENCH_NO_SPEEDUP_ASSERT=1 to record the curve without failing
    # on a noisy shared runner.
    strict = not os.environ.get("REPRO_BENCH_NO_SPEEDUP_ASSERT")
    if strict and (os.cpu_count() or 1) >= 4:
        assert speedup_w4 >= MIN_SPEEDUP_W4, (
            f"4-worker solve_many is only {speedup_w4:.2f}x over serial "
            f"(acceptance requires >= {MIN_SPEEDUP_W4}x on a 4-core runner): "
            f"{timings[4]:.3f}s vs {timings[1]:.3f}s"
        )
        # speedup_w2 is recorded in extra_info but deliberately not
        # asserted: 6 groups over 2 workers plus IPC can legitimately land
        # below any fixed bar on a noisy runner.
    benchmark(lambda: run_batch(fig12_database, 4)[1])
