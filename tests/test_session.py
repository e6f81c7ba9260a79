"""Tests for the Session / PreparedQuery public API.

Covers the redesign's contract:

* session-owned caches invalidate on database mutation (both backends);
* a ``PreparedQuery`` is reusable across databases and targets, matching
  fresh solves exactly;
* ``what_if`` (delta semijoin) returns results identical, as sets, to a
  fresh evaluation after the deletion, without mutating the database;
* ``apply_deletions`` migrates cached results across the version bump so the
  next evaluation is a cache hit, not a join;
* ``solve_many`` and ``curve`` agree with one-at-a-time solves.
"""

import time

import pytest

from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.backend import numpy_available
from repro.query.parser import parse_query
from repro.session import PreparedQuery, Session, prepare
from repro.workloads.queries import Q1
from repro.workloads.tpch import generate_tpch
from tests.row_oracle import evaluate_rows


def _small_db():
    return Database.from_dict(
        {"R1": ["A"], "R2": ["A", "B"]},
        {"R1": [(1,), (2,)], "R2": [(1, 10), (1, 11), (2, 20)]},
    )


QUERY_TEXT = "Q(A, B) :- R1(A), R2(A, B)"


def _witness_set(result):
    return {w.refs for w in result.witnesses}


# --------------------------------------------------------------------------- #
# Cache invalidation on mutation (both backends)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "backend",
    [
        "python",
        pytest.param(
            "numpy",
            marks=pytest.mark.skipif(not numpy_available(), reason="numpy not installed"),
        ),
    ],
)
def test_session_cache_invalidates_on_mutation(backend):
    database = _small_db()
    session = Session(database, backend=backend)
    prepared = session.prepare(QUERY_TEXT)

    before = session.evaluate(prepared)
    assert before.output_count() == 3

    database.relation("R2").insert((2, 21))
    after = session.evaluate(prepared)
    assert after.output_count() == 4, "stale cached result was served"
    assert (2, 21) in [row for row in after.output_rows]

    database.relation("R2").remove((2, 21))
    again = session.evaluate(prepared)
    assert again.output_count() == 3


def test_session_cache_hits_while_unchanged():
    session = Session(_small_db())
    prepared = session.prepare(QUERY_TEXT)
    first = session.evaluate(prepared)
    second = session.evaluate(prepared)
    assert second is first
    stats = session.stats
    assert stats.cache_hits >= 1
    assert stats.joins == 1


def test_sessions_do_not_share_caches():
    database = _small_db()
    a = Session(database)
    b = Session(database)
    a.evaluate(QUERY_TEXT)
    assert a.stats.joins == 1
    assert b.stats.joins == 0
    b.evaluate(QUERY_TEXT)
    assert b.stats.joins == 1  # b ran its own join, not a's cached result


# --------------------------------------------------------------------------- #
# PreparedQuery reuse across databases (satellite: parity test)
# --------------------------------------------------------------------------- #
def test_prepared_query_reused_across_databases_matches_fresh_solves():
    prepared = prepare(Q1)
    for seed in (7, 11):
        database = generate_tpch(total_tuples=80, seed=seed)
        session = Session(database)
        shared = session.solve(prepared, 3, heuristic="greedy")

        fresh_query = parse_query(str(Q1))  # re-parse: no shared object state
        fresh_session = Session(generate_tpch(total_tuples=80, seed=seed))
        fresh = fresh_session.solve(fresh_query, 3, heuristic="greedy")

        assert shared.objective == fresh.objective
        assert shared.removed == fresh.removed
        assert shared.removed_outputs == fresh.removed_outputs
        assert shared.optimal == fresh.optimal


def test_prepared_query_classification():
    prepared = PreparedQuery("Q(A, B) :- R1(A), R2(A, B)")
    assert prepared.classification in ("poly-time", "np-hard")
    assert prepared.join_order == (0, 1) or prepared.join_order == (1, 0)
    assert prepared.name == "Q"
    # Preparing through a session memoizes by canonical form.
    session = Session(_small_db())
    p1 = session.prepare("Q(A, B) :- R1(A), R2(A, B)")
    p2 = session.prepare("Renamed(A, B) :- R2(A, B), R1(A)")
    assert p1 is p2


# --------------------------------------------------------------------------- #
# what_if: delta semijoin parity and non-mutation
# --------------------------------------------------------------------------- #
def test_what_if_matches_fresh_evaluation_after_deletion():
    database = generate_tpch(total_tuples=60, seed=7)
    session = Session(database)
    prepared = session.prepare(Q1)
    base = session.evaluate(prepared)
    refs = sorted(base.participating_refs(), key=repr)[::3]

    entry = session.what_if(refs, prepared).single
    fresh = Session(database.without(refs)).evaluate(Q1)

    assert set(entry.after.output_rows) == set(fresh.output_rows)
    assert _witness_set(entry.after) == _witness_set(fresh)
    assert entry.after.witness_count() == fresh.witness_count()
    assert entry.outputs_removed == base.output_count() - fresh.output_count()
    # The bound database is untouched.
    assert session.evaluate(prepared) is base


def test_what_if_defaults_to_all_prepared_queries():
    database = _small_db()
    session = Session(database)
    session.prepare(QUERY_TEXT)
    session.prepare("Qbool() :- R1(A), R2(A, B)")
    result = session.what_if([TupleRef("R1", (1,))])
    assert len(result) == 2
    assert result.total_outputs_removed >= 1
    assert result.entry(QUERY_TEXT).outputs_removed == 2


def test_what_if_without_prepared_queries_raises():
    session = Session(_small_db())
    with pytest.raises(ValueError):
        session.what_if([TupleRef("R1", (1,))])


def test_what_if_row_engine_parity():
    database = generate_tpch(total_tuples=60, seed=7)
    columnar = Session(database)
    refs = sorted(columnar.evaluate(Q1).participating_refs(), key=repr)[::4]
    after_columnar = columnar.what_if(refs, Q1).single.after
    after_row = evaluate_rows(Q1, database.without(refs))
    assert set(after_columnar.output_rows) == set(after_row.output_rows)
    assert _witness_set(after_columnar) == _witness_set(after_row)


# --------------------------------------------------------------------------- #
# apply_deletions: in-place mutation with cache migration
# --------------------------------------------------------------------------- #
def test_apply_deletions_migrates_cache_without_rejoining():
    database = generate_tpch(total_tuples=60, seed=7)
    session = Session(database)
    prepared = session.prepare(Q1)
    base = session.evaluate(prepared)
    refs = sorted(base.participating_refs(), key=repr)[:5]
    expected = Session(database.without(refs)).evaluate(Q1)

    joins_before = session.stats.joins
    removed = session.apply_deletions(refs)
    assert removed == len(refs)

    after = session.evaluate(prepared)
    assert session.stats.joins == joins_before, "migration should avoid a re-join"
    assert set(after.output_rows) == set(expected.output_rows)
    assert _witness_set(after) == _witness_set(expected)
    # And the migrated result keeps answering provenance queries correctly.
    assert after.outputs_removed_by(refs) == 0


def test_apply_deletions_of_absent_refs_is_noop():
    database = _small_db()
    session = Session(database)
    prepared = session.prepare(QUERY_TEXT)
    base = session.evaluate(prepared)
    assert session.apply_deletions([TupleRef("R1", (999,))]) == 0
    assert session.evaluate(prepared) is base  # cache entry survived untouched


# --------------------------------------------------------------------------- #
# solve_many / curve
# --------------------------------------------------------------------------- #
def test_solve_many_matches_individual_solves():
    database = generate_tpch(total_tuples=60, seed=7)
    session = Session(database)
    prepared = session.prepare(Q1)
    total = session.output_size(prepared)
    targets = [1, 2, max(3, total // 4)]

    batched = session.solve_many([(prepared, k) for k in targets], heuristic="greedy")
    assert [s.k for s in batched] == targets
    for k, solution in zip(targets, batched):
        single = Session(database).solve(Q1, k, heuristic="greedy")
        assert solution.objective == single.objective
        assert solution.removed_outputs >= k


def test_solve_many_empty_and_mixed_queries():
    session = Session(_small_db())
    assert session.solve_many([]) == []
    q_bool = "Qbool() :- R1(A), R2(A, B)"
    solutions = session.solve_many([(QUERY_TEXT, 2), (q_bool, 1), (QUERY_TEXT, 1)])
    assert [s.k for s in solutions] == [2, 1, 1]
    assert solutions[0].objective >= solutions[2].objective


def test_curve_agrees_with_solve():
    database = generate_tpch(total_tuples=60, seed=7)
    session = Session(database)
    prepared = session.prepare(Q1)
    total = session.output_size(prepared)
    kmax = max(3, total // 3)
    curve = session.curve(prepared, kmax, heuristic="greedy")
    assert curve.cost(0) == 0
    for k in range(1, kmax + 1):
        expected = session.solve(prepared, k, heuristic="greedy").objective
        assert curve.cost(k) == expected


# --------------------------------------------------------------------------- #
# Session lifecycle / stats
# --------------------------------------------------------------------------- #
def test_closed_session_rejects_calls():
    session = Session(_small_db())
    with session:
        session.evaluate(QUERY_TEXT)
    with pytest.raises(RuntimeError):
        session.evaluate(QUERY_TEXT)


def test_stats_counters():
    session = Session(_small_db())
    prepared = session.prepare(QUERY_TEXT)
    session.evaluate(prepared)
    session.solve(prepared, 1)
    session.solve_many([(prepared, 1), (prepared, 2)])
    session.what_if([TupleRef("R1", (1,))], prepared)
    stats = session.stats
    assert stats.prepares == 1
    assert stats.evaluations == 1
    assert stats.solves == 3
    assert stats.batches == 1
    assert stats.what_if_calls == 1
    assert stats.joins >= 1
    assert stats.as_dict()["solves"] == 3


def test_engine_argument_is_gone():
    # One evaluation engine: Session takes no engine argument at all.
    for workers in (1, 2):
        with pytest.raises(TypeError, match="engine"):
            Session(_small_db(), engine="row", workers=workers)


def test_close_releases_interning_tables():
    session = Session(_small_db())
    session.evaluate(QUERY_TEXT)
    assert len(session._context._interners) > 0
    session.close()
    assert len(session._context._interners) == 0


def test_robustness_profile_validates_ratios():
    from repro.core.resilience import robustness_profile

    database = _small_db()
    query = parse_query(QUERY_TEXT)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            robustness_profile(query, database, ratios=[bad])


# --------------------------------------------------------------------------- #
# Deterministic teardown (service-registry contract)
# --------------------------------------------------------------------------- #
def test_close_is_idempotent_and_exposes_closed():
    session = Session(_small_db())
    assert session.closed is False
    session.close()
    assert session.closed is True
    session.close()  # second close is a no-op, not an error
    with pytest.raises(RuntimeError, match="closed"):
        session.evaluate(QUERY_TEXT)


def test_close_shuts_down_worker_processes_deterministically():
    session = Session(_small_db(), workers=2)
    pool = session._pool.get()
    if pool is None:
        pytest.skip("worker pool unavailable in this environment")
    procs = list(pool._procs)
    assert all(proc.is_alive() for proc in procs)
    session.close()
    assert all(not proc.is_alive() for proc in procs)


def test_dropped_session_finalizer_closes_worker_processes():
    """A session that is garbage collected without close() must not leak
    its worker pool until interpreter exit (the GC finalizer net)."""
    import gc

    session = Session(_small_db(), workers=2)
    pool = session._pool.get()
    if pool is None:
        pytest.skip("worker pool unavailable in this environment")
    procs = list(pool._procs)
    assert all(proc.is_alive() for proc in procs)
    del session, pool
    gc.collect()
    deadline = time.time() + 5.0
    while time.time() < deadline and any(proc.is_alive() for proc in procs):
        time.sleep(0.01)
    assert all(not proc.is_alive() for proc in procs)
