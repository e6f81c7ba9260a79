"""The real worker pool: ``solve_many`` group dispatch and its failure paths.

Everything here exercises actual ``multiprocessing`` workers (fork/spawn
subprocesses), so the workloads are kept deliberately small.  A
``workers > 1`` session evaluates on the serial columnar path; only
``solve_many`` batches with several hard-leaf query groups reach the pool.
"""

import threading

import pytest

from repro.parallel.pool import WorkerPool
from repro.query.parser import parse_query
from repro.session import Session
from repro.workloads.queries import Q1
from repro.workloads.tpch import generate_tpch

from tests.conftest import packed_columns

# Hard-leaf projections of the Q1 join (no universal attribute, connected,
# non-singleton): exactly the group shape solve_many dispatches to workers.
QA = parse_query(
    "QA(NK, OK) :- Supplier(NK, SK), PartSupp(SK, PK), LineItem(OK, PK)"
)
QB = parse_query(
    "QB(SK, PK) :- Supplier(NK, SK), PartSupp(SK, PK), LineItem(OK, PK)"
)


@pytest.fixture(scope="module")
def tpch_db():
    return generate_tpch(total_tuples=200, seed=7)


def test_worker_pool_round_trip_and_close():
    pool = WorkerPool(2)
    try:
        assert pool.size == 2
        assert pool.ping()
        replies = pool.run([(w, {"kind": "ping"}) for w in range(6)])
        assert replies == ["pong"] * 6
    finally:
        pool.close()
    pool.close()  # idempotent
    with pytest.raises(RuntimeError):
        pool.run([(0, {"kind": "ping"})])


def test_worker_errors_surface_as_runtime_error():
    pool = WorkerPool(1)
    try:
        with pytest.raises(RuntimeError, match="unknown task kind"):
            pool.run([(0, {"kind": "no-such-task"})])
        # The worker survives a task error and keeps serving.
        assert pool.ping()
    finally:
        pool.close()


def test_parallel_session_evaluate_matches_serial(tpch_db):
    """A ``workers > 1`` session evaluates serially and starts no pool."""
    serial = Session(tpch_db)
    expected = serial.evaluate(Q1)
    with Session(tpch_db, workers=2) as session:
        assert session.workers == 2
        result = session.evaluate(Q1)
        assert result.output_rows == expected.output_rows
        assert list(result.witness_outputs) == list(expected.witness_outputs)
        assert packed_columns(result.provenance) == packed_columns(expected.provenance)
        assert session.evaluate(Q1) is result
        assert session._pool._pool is None  # evaluation never touches the pool


def test_solve_many_parallel_groups_match_serial(tpch_db):
    requests = [(Q1, 3), (QA, 2), (QB, 2), (Q1, 1), (QA, 1)]
    expected = Session(tpch_db).solve_many(requests, heuristic="greedy")
    with Session(tpch_db, workers=2) as session:
        got = session.solve_many(requests, heuristic="greedy")
        assert len(got) == len(expected)
        for ours, theirs in zip(got, expected):
            assert ours.k == theirs.k
            assert ours.size == theirs.size
            assert ours.removed == theirs.removed
            assert ours.method == theirs.method
            assert ours.removed_outputs == theirs.removed_outputs
        assert session.stats.solves == len(requests)
        assert session.stats.batches == 1
        # Repeat batches reuse the worker-resident database (shipped once).
        again = session.solve_many(requests, heuristic="greedy")
        assert [s.size for s in again] == [s.size for s in expected]


def test_solve_many_concurrent_batches_from_threads(tpch_db):
    """The solve_many contract holds under concurrent callers of one session."""
    expected = Session(tpch_db).solve_many([(Q1, 2), (QA, 2)], heuristic="greedy")
    with Session(tpch_db, workers=2) as session:
        outcomes = [None] * 4
        errors = []

        def worker(slot):
            try:
                outcomes[slot] = session.solve_many(
                    [(Q1, 2), (QA, 2)], heuristic="greedy"
                )
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for outcome in outcomes:
            assert [s.size for s in outcome] == [s.size for s in expected]
            assert [s.removed for s in outcome] == [s.removed for s in expected]


def test_task_error_does_not_poison_the_pool(tpch_db):
    """A user error inside a worker falls back serially but keeps the pool."""
    with Session(tpch_db, workers=2) as session:
        session.solve_many([(Q1, 2), (QA, 2)], heuristic="greedy")  # pool up
        pool = session._pool
        assert pool.get() is not None
        with pytest.raises(ValueError):
            # An infeasible target: the worker's solver raises, the serial
            # fallback re-raises the real exception...
            session.solve_many([(Q1, 10**9), (QA, 2)], heuristic="greedy")
        # ...and the pool is still alive and used afterwards.
        assert not pool._failed
        assert pool.get() is not None and pool.get().ping()
        again = session.solve_many([(Q1, 2), (QA, 2)], heuristic="greedy")
        assert [s.k for s in again] == [2, 2]


def test_clear_cache_reaches_worker_caches(tpch_db):
    """clear_cache drops worker-held results: cleared batches re-join more.

    Solver-internal sub-instance joins recur on every batch (fresh
    sub-databases per solve, identical to the serial engine), so the
    observable signal of the worker-side clear is the *extra* top-level
    evaluations: a repeat batch serves them from the worker caches, a
    post-clear batch runs them again.
    """
    requests = [(Q1, 2), (QA, 2)]
    with Session(tpch_db, workers=2) as session:
        expected = session.solve_many(requests, heuristic="greedy")
        after_first = session.stats.joins
        session.solve_many(requests, heuristic="greedy")
        repeat_growth = session.stats.joins - after_first
        session.clear_cache()
        before_cleared = session.stats.joins
        cleared = session.solve_many(requests, heuristic="greedy")
        cleared_growth = session.stats.joins - before_cleared
        # The cleared batch redoes the per-group top-level evaluations the
        # warm repeat served from worker caches.
        assert cleared_growth == repeat_growth + len(requests)
        assert [s.size for s in cleared] == [s.size for s in expected]


def test_mixed_batches_gate_recursive_groups_to_the_parent(tpch_db):
    """Only hard-leaf groups dispatch; recursive ones stay parent-side.

    ``QPOLY`` has the universal attribute SK, so its solve recurses into
    Universe sub-instances -- sub-instance construction iterates relation
    sets, whose order is process-dependent, so dispatching it could break
    the serial-identical contract.  The mixed batch must still return
    exactly the serial solutions.
    """
    from repro.session import _is_leaf_group

    QPOLY = parse_query("QP(NK, SK, PK) :- Supplier(NK, SK), PartSupp(SK, PK)")
    with Session(tpch_db, workers=2) as session:
        assert _is_leaf_group(session.prepare(Q1))
        assert _is_leaf_group(session.prepare(QA))
        assert not _is_leaf_group(session.prepare(QPOLY))
        requests = [(Q1, 2), (QPOLY, 2), (QA, 2)]
        expected = Session(tpch_db).solve_many(requests, heuristic="greedy")
        got = session.solve_many(requests, heuristic="greedy")
        assert [s.removed for s in got] == [s.removed for s in expected]
        assert [s.size for s in got] == [s.size for s in expected]


def test_store_miss_recovery_re_ships_payloads(tpch_db):
    """A desynced parent prediction heals via the miss protocol + one retry.

    Simulated by lying in ``has_key`` (parent believes the workers hold a
    database they never received) until the first ``forget`` call --
    exactly the state a failed dispatch or worker eviction leaves behind.
    """
    with Session(tpch_db, workers=2) as session:
        pool = session._pool.get()
        assert pool is not None
        real_has_key = pool.has_key
        real_forget = pool.forget
        state = {"lying": True, "forgets": 0}
        pool.has_key = lambda w, ns, key: True if state["lying"] else real_has_key(
            w, ns, key
        )

        def forget(worker, namespace, key):
            state["lying"] = False  # healing starts: predictions dropped
            state["forgets"] += 1
            return real_forget(worker, namespace, key)

        pool.forget = forget
        solutions = session.solve_many([(Q1, 2), (QA, 2)], heuristic="greedy")
        expected = Session(tpch_db).solve_many([(Q1, 2), (QA, 2)], heuristic="greedy")
        assert state["forgets"] > 0  # the miss protocol actually fired
        assert not session._pool._failed  # and the pool survived
        assert [s.removed for s in solutions] == [s.removed for s in expected]


def test_schema_mismatch_raises_the_serial_error():
    """A ``workers > 1`` session validates schemas with the serial message."""
    from repro.data.database import Database

    db = Database.from_dict(
        {"R": ["A", "C"], "S": ["A", "B"]},
        {"R": [(i, i) for i in range(40)], "S": [(i, i) for i in range(40)]},
    )
    query = parse_query("Qbad(A, B) :- R(A, B), S(A, B)")
    with Session(db, workers=2) as session:
        with pytest.raises(ValueError, match="stores attributes"):
            session.evaluate(query)


def test_close_shuts_down_the_pool(tpch_db):
    session = Session(tpch_db, workers=2)
    session.solve_many([(Q1, 2), (QA, 2)], heuristic="greedy")
    pool = session._pool.get()
    assert pool is not None
    procs = list(pool._procs)
    assert all(proc.is_alive() for proc in procs)
    session.close()
    for proc in procs:
        proc.join(timeout=2.0)
    assert not any(proc.is_alive() for proc in procs)


def test_pool_failure_falls_back_to_inline(tpch_db):
    """With the pool marked failed, solve_many runs the serial path."""
    requests = [(Q1, 2), (QA, 2)]
    expected = Session(tpch_db).solve_many(requests, heuristic="greedy")
    with Session(tpch_db, workers=2) as session:
        session._pool.mark_failed()
        got = session.solve_many(requests, heuristic="greedy")
        assert session._pool.get() is None
        assert [s.removed for s in got] == [s.removed for s in expected]


def test_what_if_and_apply_deletions_on_parallel_results(tpch_db):
    serial = Session(tpch_db.copy())
    parallel = Session(tpch_db.copy(), workers=2)
    try:
        solution = serial.solve(Q1, 3, heuristic="greedy")
        refs = frozenset(solution.removed)
        expected_entry = serial.what_if(refs, Q1).single
        got_entry = parallel.what_if(refs, Q1).single
        assert got_entry.outputs_removed == expected_entry.outputs_removed
        assert got_entry.witnesses_removed == expected_entry.witnesses_removed

        assert serial.apply_deletions(refs) == parallel.apply_deletions(refs)
        after_serial = serial.evaluate(Q1)
        after_parallel = parallel.evaluate(Q1)
        assert set(after_parallel.output_rows) == set(after_serial.output_rows)
        assert after_parallel.witness_count() == after_serial.witness_count()
    finally:
        serial.close()
        parallel.close()
