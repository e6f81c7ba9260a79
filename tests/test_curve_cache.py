"""The per-session curve cache: one cost curve per (query, version, solver).

A curve computed at ``kmax`` must answer every ``k <= kmax`` exactly as a
fresh session solving at ``k`` would; mutations and ``clear_cache`` must
force a recompute; entries must never cross backends or curve-shaping
solver configurations; and concurrent readers must see serial answers.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.core.adp import ADPSolver, CurveEntry
from repro.core.curves import constant_zero_curve
from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.backend import numpy_available
import repro.engine.cache as cache_module
from repro.engine.cache import Answer, CurveCache, encoded_length
from repro.engine.columnar import QueryResult
from repro.obs.trace import Tracer, use_tracer
from repro.query.parser import parse_query
from repro.session import Session
from repro.workloads.queries import Q6, QPATH_EXP
from repro.workloads.zipf import generate_zipf_path

BACKENDS = [
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not numpy_available(), reason="numpy unavailable"),
    ),
]

QH = parse_query("Qh(A) :- R1(A), R2(A, B), R3(B)")
#: A second hard-leaf projection of the same join.
QB = parse_query("Qb(B) :- R1(A), R2(A, B), R3(B)")


def _answer(solution):
    return (
        solution.objective,
        solution.removed,
        solution.optimal,
        solution.method,
        solution.stats.get("heuristic_fallbacks"),
    )


def _triangle_database():
    rng = random.Random(4)
    edges = sorted({(rng.randrange(8), rng.randrange(8)) for _ in range(30)})
    return Database.from_dict(
        {"R1": ["A", "B"], "R2": ["B", "C"], "R3": ["C", "A"]},
        {"R1": edges, "R2": edges, "R3": [(c, a) for a, c in edges]},
    )


def _universe_database():
    return Database.from_dict(
        {"R1": ["A", "B"], "R2": ["A", "C"]},
        {
            "R1": [(1, 10), (1, 11), (2, 20), (3, 30), (3, 31)],
            "R2": [(1, 5), (1, 6), (2, 7), (3, 8)],
        },
    )


def _decompose_database():
    return Database.from_dict(
        {"R1": ["A", "B"], "R2": ["B"], "R3": ["C", "D"], "R4": ["D"]},
        {
            "R1": [(1, 1), (2, 1), (3, 2)],
            "R2": [(1,), (2,)],
            "R3": [(1, 1), (2, 2), (3, 2)],
            "R4": [(1,), (2,)],
        },
    )


def _swing_database():
    return Database.from_dict(
        {"R2": ["A", "B"], "R3": ["B"]},
        {"R2": [(1, 1), (2, 1), (3, 2)], "R3": [(1,), (2,)]},
    )


#: (id, query, database factory, solver overrides) -- every ComputeADP branch.
CASES = [
    ("boolean-mincut", parse_query("Qb() :- R1(A), R2(A, B), R3(B)"),
     lambda: generate_zipf_path(r2_tuples=60, alpha=0.0, seed=3), {}),
    ("boolean-greedy", parse_query("Qt() :- R1(A, B), R2(B, C), R3(C, A)"),
     _triangle_database, {}),
    ("singleton", Q6, lambda: generate_zipf_path(r2_tuples=80, alpha=1.1, seed=5), {}),
    ("universe", parse_query("Qu(A, B, C) :- R1(A, B), R2(A, C)"),
     _universe_database, {}),
    ("decompose", parse_query("Qd(A, C) :- R1(A, B), R2(B), R3(C, D), R4(D)"),
     _decompose_database, {}),
    ("greedy-leaf", QH, lambda: generate_zipf_path(r2_tuples=120, alpha=1.1, seed=7), {}),
    ("drastic-path", QPATH_EXP,
     lambda: generate_zipf_path(r2_tuples=60, alpha=0.5, seed=9), {"heuristic": "drastic"}),
    ("drastic-triangle", parse_query("Qt(A, B, C) :- R1(A, B), R2(B, C), R3(C, A)"),
     _triangle_database, {"heuristic": "drastic"}),
    ("drastic-fallback", parse_query("Qswing(A) :- R2(A, B), R3(B)"),
     _swing_database, {"heuristic": "drastic"}),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "query,factory,overrides", [case[1:] for case in CASES], ids=[c[0] for c in CASES]
)
def test_curve_warmed_at_total_answers_every_k(query, factory, overrides, backend):
    database = factory()
    with Session(database, backend=backend) as warm:
        total = warm.output_size(query)
        assert total >= 1
        warm.solve(query, total, **overrides)
        assert warm.stats.curve_misses == 1
        for k in range(1, total + 1):
            cached = warm.solve(query, k, **overrides)
            with Session(database, backend=backend) as fresh:
                expected = fresh.solve(query, k, **overrides)
            assert _answer(cached) == _answer(expected), k
        stats = warm.stats
        assert (stats.curve_hits, stats.curve_misses) == (total, 1)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "query,factory,overrides", [case[1:] for case in CASES], ids=[c[0] for c in CASES]
)
def test_memoized_removed_count_equals_the_verified_one(
    query, factory, overrides, backend
):
    """A second read at ``k`` (the memo) equals the first (verified) one.

    ``outputs_removed_by`` stays the oracle: every answer's count must
    equal a from-scratch re-evaluation of the query without its removal.
    """
    database = factory()
    with Session(database, backend=backend) as session:
        total = session.output_size(query)
        session.solve(query, total, **overrides)
        for k in range(1, total + 1):
            verified = session.solve(query, k, **overrides)
            memoized = session.solve(query, k, **overrides)
            assert memoized == verified, k
            assert verified.removed_outputs == verified.verify(database) >= k
        assert session.stats.curve_misses == 1


@pytest.fixture
def verifications(monkeypatch):
    """Count calls to ``QueryResult.outputs_removed_by``."""
    calls = []
    original = QueryResult.outputs_removed_by

    def counted(self, removed):
        calls.append(1)
        return original(self, removed)

    monkeypatch.setattr(QueryResult, "outputs_removed_by", counted)
    return calls


@pytest.mark.parametrize("backend", BACKENDS)
def test_warm_read_off_verifies_each_k_once(verifications, backend):
    database = generate_zipf_path(r2_tuples=150, alpha=1.1, seed=11)
    with Session(database, backend=backend) as session:

        def calls(*solve_args, **overrides):
            before = len(verifications)
            session.solve(QH, *solve_args, **overrides)
            return len(verifications) - before

        assert calls(5) == 1  # cold: the curve and its first count
        assert calls(5) == 0  # repeat warm read-off: a lookup
        assert calls(3) == 1  # a new k on the same entry
        assert calls(3) == 0
        assert calls(2, counting_only=True) == 0
        assert calls(2) == 1  # counting_only stored nothing
        before = len(verifications)
        session.solve_many([(QH, 3), (QH, 5), (QH, 4), (QH, 4)])
        assert len(verifications) - before == 1  # only k=4 is new
        assert session.stats.curve_misses == 1


@pytest.mark.parametrize("mutate", ["apply_deletions", "apply_insertions"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_removed_count_memo_never_crosses_versions(verifications, mutate, backend):
    database = generate_zipf_path(r2_tuples=150, alpha=1.1, seed=11)
    with Session(database, backend=backend) as session:
        session.solve(QH, 3)
        if mutate == "apply_deletions":
            victims = sorted(session.evaluate(QH).participating_refs(), key=repr)[:4]
            session.apply_deletions(victims)
        else:
            session.apply_insertions(
                [TupleRef("R2", ("a0", "b1")), TupleRef("R2", ("a1", "b0"))]
            )
        before = len(verifications)
        solution = session.solve(QH, 3)
        assert len(verifications) == before + 1
        with Session(database, backend=backend) as fresh:
            assert solution == fresh.solve(QH, 3)


def test_fallback_count_travels_with_the_cached_curve():
    query, factory, overrides = CASES[-1][1:]
    with Session(factory()) as session:
        first = session.solve(query, 2, **overrides)
        again = session.solve(query, 1, **overrides)
        assert session.stats.curve_hits == 1
    assert first.stats["heuristic_fallbacks"] >= 1
    assert again.stats["heuristic_fallbacks"] == first.stats["heuristic_fallbacks"]


def test_larger_k_recomputes_and_replaces_the_entry():
    database = generate_zipf_path(r2_tuples=120, alpha=1.1, seed=7)
    with Session(database) as session:
        total = session.output_size(QH)
        session.solve(QH, 2)
        session.solve(QH, total)  # above the cached kmax: a miss
        session.solve(QH, total - 1)  # covered by the replacement
        stats = session.stats
        assert (stats.curve_hits, stats.curve_misses) == (1, 2)


def test_curve_reads_do_not_count_as_evaluation_hits():
    database = generate_zipf_path(r2_tuples=120, alpha=1.1, seed=7)
    with Session(database) as session:
        session.solve(QH, 3)
        before = session.stats
        session.solve(QH, 2)
        after = session.stats
    assert after.curve_hits == before.curve_hits + 1
    # Exactly the one evaluation lookup of the solve itself.
    assert after.cache_hits == before.cache_hits + 1
    assert after.cache_misses == before.cache_misses
    assert set(after.as_dict()) >= {"curve_hits", "curve_misses"}


def test_session_curve_and_solve_many_share_the_cache():
    database = generate_zipf_path(r2_tuples=120, alpha=1.1, seed=7)
    with Session(database) as session:
        curve = session.curve(QH, 5)
        solutions = session.solve_many([(QH, 2), (QH, 4)])
        assert session.stats.curve_hits == 1
        assert session.curve(QH, 3) is curve
        assert [s.objective for s in solutions] == [curve.cost(2), curve.cost(4)]
        with pytest.raises(ValueError):
            session.curve(QH, -1)
        # Two distinct hard-leaf groups: repeating the batch reads both
        # curves from the session cache, one hit per group and no miss.
        batch = [(QH, 3), (QB, 2), (QB, 1)]
        first = session.solve_many(batch)
        hits, misses = session.stats.curve_hits, session.stats.curve_misses
        again = session.solve_many(batch)
        assert session.stats.curve_hits == hits + 2
        assert session.stats.curve_misses == misses
        assert [_answer(s) for s in again] == [_answer(s) for s in first]


@pytest.mark.parametrize(
    "mutate",
    ["apply_deletions", "apply_insertions", "clear_cache"],
)
@pytest.mark.parametrize("backend", BACKENDS)
def test_mutation_and_clear_force_a_miss(mutate, backend):
    database = generate_zipf_path(r2_tuples=150, alpha=1.1, seed=11)
    with Session(database, backend=backend) as session:
        total = session.output_size(QH)
        session.solve(QH, total)
        if mutate == "apply_deletions":
            victims = sorted(session.evaluate(QH).participating_refs(), key=repr)[:4]
            session.apply_deletions(victims)
        elif mutate == "apply_insertions":
            session.apply_insertions(
                [TupleRef("R2", ("a0", "b1")), TupleRef("R2", ("a1", "b0"))]
            )
        else:
            session.clear_cache()
        misses = session.stats.curve_misses
        k = min(3, session.output_size(QH))
        solution = session.solve(QH, k)
        assert session.stats.curve_misses == misses + 1
        with Session(database, backend=backend) as fresh:
            assert _answer(solution) == _answer(fresh.solve(QH, k))


def test_configurations_that_shape_a_curve_never_share_an_entry():
    query = QPATH_EXP  # full: greedy and drastic both apply
    database = generate_zipf_path(r2_tuples=80, alpha=1.1, seed=5)
    with Session(database) as session:
        session.solve(query, 3)
        session.solve(query, 3, heuristic="drastic")
        session.solve(query, 3, endogenous_only=False)
        assert session.stats.curve_misses == 3
        assert session.stats.curve_hits == 0
        counting = session.solve(query, 3, counting_only=True)
        assert session.stats.curve_hits == 1
        assert counting.removed == frozenset()
        assert counting.objective == session.solve(query, 3).objective


def test_backends_never_share_an_entry():
    database = generate_zipf_path(r2_tuples=40, alpha=0.0, seed=1)
    cache = CurveCache()
    entry = CurveEntry(5, constant_zero_curve(), 0)
    solver_key = ADPSolver().curve_key()
    cache.store(database, "q", database.version_token(), "python", solver_key, entry)
    assert cache.lookup(database, "q", "numpy", solver_key, 3) is None
    assert cache.lookup(database, "q", "python", solver_key, 3) is entry
    assert cache.lookup(database, "q", "python", solver_key, 6) is None
    # A smaller entry never replaces a larger one; a stale token is refused.
    cache.store(database, "q", database.version_token(), "python", solver_key,
                CurveEntry(2, constant_zero_curve(), 0))
    assert cache.lookup(database, "q", "python", solver_key, 5) is entry
    cache.store(database, "q2", ("stale",), "python", solver_key, entry)
    assert cache.lookup(database, "q2", "python", solver_key, 1) is None


def test_solver_class_is_part_of_the_key():
    class OtherSolver(ADPSolver):
        pass

    assert OtherSolver().curve_key() != ADPSolver().curve_key()
    assert ADPSolver(counting_only=True).curve_key() == ADPSolver().curve_key()


def _root(tracer, name):
    (root,) = [tree for tree in tracer.export() if tree["name"] == name]
    return root


def test_solve_spans_report_curve_cached():
    database = generate_zipf_path(r2_tuples=120, alpha=1.1, seed=7)
    with Session(database) as session:
        attrs = []
        for k in (4, 2):
            tracer = Tracer()
            with use_tracer(tracer):
                session.solve(QH, k)
            attrs.append(_root(tracer, "session.solve")["attrs"]["curve_cached"])
        tracer = Tracer()
        with use_tracer(tracer):
            session.solve_many([(QH, 1), (Q6, 1)])
        root = _root(tracer, "session.solve_many")
    assert attrs == [False, True]
    assert root["attrs"]["curve_cached"] == 1  # QH cached, Q6 computed


@pytest.mark.parametrize("backend", BACKENDS)
def test_greedy_span_reports_rounds_and_kernel(backend):
    database = generate_zipf_path(r2_tuples=120, alpha=1.1, seed=7)
    with Session(database, backend=backend) as session:
        session.evaluate(QH)
        tracer = Tracer()
        with use_tracer(tracer):
            session.solve(QH, 5)

    def find(tree):
        if tree["name"] == "solver.greedy":
            return tree
        for child in tree.get("children", ()):
            found = find(child)
            if found is not None:
                return found
        return None

    attrs = find(_root(tracer, "session.solve"))["attrs"]
    assert attrs["kernel"] == ("vector" if backend == "numpy" else "scan")
    assert attrs["rounds"] >= attrs["picks"] >= 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_concurrent_solves_match_serial_answers(backend):
    database = generate_zipf_path(r2_tuples=300, alpha=1.1, seed=17)
    with Session(database, backend=backend) as serial:
        total = serial.output_size(QH)
        expected = {k: _answer(serial.solve(QH, k)) for k in range(1, total + 1)}

    rng = random.Random(23)
    plans = [[rng.randint(1, total) for _ in range(20)] for _ in range(8)]
    failures = []
    with Session(database, backend=backend) as shared:

        def worker(targets):
            try:
                for k in targets:
                    if _answer(shared.solve(QH, k)) != expected[k]:
                        failures.append(k)
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(p,)) for p in plans]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = shared.stats
    assert failures == []
    assert stats.curve_hits + stats.curve_misses == 160


@pytest.mark.parametrize("heuristic", ["greedy", "drastic"])
def test_random_instances_warm_curve_matches_fresh(heuristic):
    from tests.conftest import random_instance, random_query

    rng = random.Random(1409)
    checked = 0
    for _case in range(400):
        query = random_query(rng)
        database = random_instance(query, rng, max_tuples_per_relation=6)
        with Session(database, backend="python") as warm:
            total = warm.output_size(query)
            if total == 0:
                continue
            warm.solve(query, total, heuristic=heuristic)
            for k in range(1, total + 1):
                with Session(database, backend="python") as fresh:
                    expected = fresh.solve(query, k, heuristic=heuristic)
                assert _answer(warm.solve(query, k, heuristic=heuristic)) == _answer(
                    expected
                ), (str(query), k)
                checked += 1
            assert warm.stats.curve_misses == 1
    assert checked >= 250


def _entry_with_answers(cache, database, query_key, kmax, payload_bytes):
    """Cache a constant curve at ``kmax``; memoize one payload per ``k``."""
    entry = CurveEntry(kmax, constant_zero_curve(), 0)
    cache.store(database, query_key, database.version_token(), "python", "s", entry)
    for k in range(1, kmax + 1):
        payload = {"k": k, "removed_outputs": k, "pad": "x" * payload_bytes}
        cache.remember_payload(database, query_key, "python", "s", k, False, payload)
    return entry


def test_answer_memo_evicts_oldest_first_within_its_budget(monkeypatch):
    database = _triangle_database()
    sizes = [encoded_length({"k": k, "removed_outputs": k, "pad": "x" * 100})
             for k in (1, 2, 3)]
    monkeypatch.setattr(cache_module, "MAX_ANSWER_BYTES", sum(sizes[1:]))
    cache = CurveCache()
    entry = _entry_with_answers(cache, database, "q", 3, 100)
    assert cache.answer_bytes() == sum(sizes[1:])
    assert entry.answers.get((1, False)) is None  # the oldest went first
    for k in (2, 3):
        payload = cache.cached_payload(database, "q", "python", "s", k, False)
        assert payload == {"k": k, "removed_outputs": k, "pad": "x" * 100}
    assert cache.cached_payload(database, "q", "python", "s", 1, False) is None
    assert cache.cached_payload(database, "q", "python", "s", 2, True) is None
    assert cache.stats() == (2, 0)  # only the two payloads found count
    # An answer larger than the whole budget is never kept.
    cache.remember_payload(
        database, "q", "python", "s", 1, False,
        {"k": 1, "removed_outputs": 1, "pad": "x" * 1000},
    )
    assert entry.answers.get((1, False)) is None
    assert cache.answer_bytes() == sum(sizes[1:])


@pytest.mark.parametrize("leave", ["drop", "replace", "clear"])
def test_entries_leaving_the_cache_take_their_answers_charge(leave):
    database = _triangle_database()
    cache = CurveCache()
    old = _entry_with_answers(cache, database, "q", 2, 10)
    other = _entry_with_answers(cache, database, "p", 1, 10)
    kept = encoded_length(other.answers.get((1, False)).payload)
    assert cache.answer_bytes() > kept
    if leave == "drop":
        cache.drop(database)
        assert cache.answer_bytes() == 0
    elif leave == "replace":
        _entry_with_answers(cache, database, "q", 3, 10)
        larger = cache.answer_bytes()
        assert larger > kept
        # The replaced entry's memo is no longer charged: storing into it
        # changes nothing.
        old.answers.put((9, False), Answer(9))
        assert cache.answer_bytes() == larger
    else:
        cache.clear()
        assert cache.answer_bytes() == 0
    assert old.answers.owner is None


def test_racing_answer_writers_keep_the_charge_exact(monkeypatch):
    """Threads storing, memoizing and dropping entries never lose a charge.

    Afterwards the cache's byte count must equal the answers its resident
    entries still hold, and stay inside the budget.
    """
    budget = 3_000
    monkeypatch.setattr(cache_module, "MAX_ANSWER_BYTES", budget)
    database = _triangle_database()
    cache = CurveCache()
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(3000):
                # Few keys, so threads keep colliding on one answer.
                query_key, k = "q", rng.randint(1, 4)
                roll = rng.random()
                if roll < 0.05:
                    cache.drop(database)
                elif roll < 0.25:
                    cache.store(database, query_key, database.version_token(),
                                "python", "s", CurveEntry(k, constant_zero_curve(), 0))
                elif roll < 0.5:
                    entry = cache.lookup(database, query_key, "python", "s", k)
                    if entry is not None:  # what solve_in_context stores
                        entry.answers.put((k, False), Answer(k))
                else:
                    cache.remember_payload(
                        database, query_key, "python", "s", k, rng.random() < 0.5,
                        {"k": k, "removed_outputs": k, "pad": "x" * rng.randint(0, 300)},
                    )
                    cache.cached_payload(database, query_key, "python", "s", k, False)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    resident = cache._per_database.get(database, {}).values()
    held = sum(
        answer.nbytes for entry in resident for answer in entry.answers.answers.values()
    )
    assert cache.answer_bytes() == held <= budget
