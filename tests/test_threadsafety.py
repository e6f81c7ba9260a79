"""Concurrency bugfix tests: contextvar routing, lazy-build locks, counters.

The satellite contract (documented in ``repro.session``): read paths on one
session are thread-safe -- the engine-context routing is per-thread via a
``ContextVar``, the interning tables and the delta postings index guard
their lazy builds with locks, cache operations are internally locked, and
the usage counters behind ``Session.stats`` are bumped under locks.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.engine.evaluate import EngineContext, active_context, use_context
from repro.session import Session
from repro.workloads.queries import QPATH_EXP
from repro.workloads.zipf import generate_zipf_path


def test_contextvar_routing_is_per_thread():
    """Two threads activating different contexts never see each other's."""
    first = EngineContext()
    second = EngineContext()
    barrier = threading.Barrier(2)
    observed = {}

    def run(name, context):
        with use_context(context):
            barrier.wait()  # both threads are inside their own scope now
            observed[name] = active_context()
            barrier.wait()

    threads = [
        threading.Thread(target=run, args=("first", first)),
        threading.Thread(target=run, args=("second", second)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert observed["first"] is first
    assert observed["second"] is second
    assert active_context() is None


def test_concurrent_what_if_shares_one_postings_index():
    """Racing what_if callers agree on counts and build one postings index."""
    database = generate_zipf_path(r2_tuples=200, alpha=0.5, seed=13)
    with Session(database) as session:
        result = session.evaluate(QPATH_EXP)
        refs = sorted(result.participating_refs(), key=repr)[:10]
        expected = (
            session.what_if(refs, QPATH_EXP).single.outputs_removed,
            session.what_if(refs, QPATH_EXP).single.witnesses_removed,
        )
        # Drop the lazily-built postings so the threads race the build.
        result._postings = [None] * result.atom_count()

        def probe(_):
            entry = session.what_if(refs, QPATH_EXP).single
            return (entry.outputs_removed, entry.witnesses_removed)

        with ThreadPoolExecutor(max_workers=8) as executor:
            outcomes = list(executor.map(probe, range(32)))
        assert all(outcome == expected for outcome in outcomes)
        postings = [result.postings_for_atom(a) for a in range(result.atom_count())]
        # The build ran under the lock: later calls return the same objects.
        assert [
            result.postings_for_atom(a) for a in range(result.atom_count())
        ] == postings


def test_concurrent_evaluate_shares_one_interning_pass():
    """Threads racing a cold evaluate get one result and one interner set."""
    database = generate_zipf_path(r2_tuples=200, alpha=0.0, seed=7)
    with Session(database) as session:
        barrier = threading.Barrier(6)
        results = []

        def evaluate(_):
            barrier.wait()
            return session.evaluate(QPATH_EXP)

        with ThreadPoolExecutor(max_workers=6) as executor:
            results = list(executor.map(evaluate, range(6)))
        first = results[0]
        assert all(list(r.witness_outputs) == list(first.witness_outputs) for r in results)
        context = session._context
        for relation in database:
            index = context.interned(relation)
            assert context.interned(relation) is index


def test_stats_counters_exact_under_concurrent_readers():
    """N threads x M read calls: ``Session.stats`` counts each exactly once.

    A tiny switch interval makes the interpreter preempt threads inside
    the unlocked check-then-insert a racy ``prepare`` would run, and
    between the read and the write of an unguarded ``+=``; either shows
    up as a wrong count.
    """
    threads, calls = 8, 10
    query = "Qh(A) :- R1(A), R2(A, B), R3(B)"
    # 20 distinct canonical queries, prepared by every thread at once.
    racing = [
        f"Q({head}) :- {body}"
        for head in ("", "A", "B", "A, B", "B, A")
        for body in ("R1(A), R2(A, B)", "R2(A, B), R3(B)", "R2(A, B)",
                     "R1(A), R2(A, B), R3(B)")
    ]
    database = generate_zipf_path(r2_tuples=40, alpha=0.5, seed=3)
    previous = sys.getswitchinterval()
    for _round in range(12):  # each round races fresh, empty session state
        with Session(database) as session:
            session.solve(query, 2)  # warm: later solves are cache hits
            joins_before = session.stats.joins
            barrier = threading.Barrier(threads)

            def hammer(_, session=session, barrier=barrier):
                barrier.wait()
                for text in racing:
                    session.prepare(text)
                for _ in range(calls):
                    session.evaluate(query, use_cache=False)
                    session.solve(query, 2)

            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(max_workers=threads) as executor:
                    list(executor.map(hammer, range(threads)))
            finally:
                sys.setswitchinterval(previous)
            stats = session.stats
            prepared = len(session.prepared_queries)
        total = threads * calls
        assert prepared == 20
        assert stats.prepares == prepared
        assert stats.evaluations == total
        assert stats.solves == total + 1
        assert stats.joins == joins_before + total


def test_mixed_solve_what_if_apply_matches_serial_replay():
    """Hammer one database with mixed reads + serialized mutations.

    The service contract (repro.service.registry): any number of threads
    may solve/what-if concurrently while apply_deletions/apply_insertions
    take the write side of a per-database lock.  Under that discipline
    every observation a reader makes at version ``v`` must be
    byte-identical to a serial replay that performs the same mutations in
    the same order.
    """
    import random

    from repro.data.relation import TupleRef
    from repro.service.registry import ReadWriteLock
    from repro.workloads.queries import Q6

    from tests.conftest import packed_outputs

    def build():
        return generate_zipf_path(r2_tuples=300, alpha=0.8, seed=5)

    session = Session(build())
    lock = ReadWriteLock()
    state = {"version": 1}

    # Deterministic mutation batches derived from the initial instance: the
    # hammered and the replayed database apply exactly the same tuples in
    # the same order.  Deletions are disjoint slices of the sorted R2
    # edges; insertions are fresh R2 edges recombined from stored endpoint
    # values (so they genuinely join).
    initial_refs = sorted(
        (ref for ref in build().all_refs() if ref.relation == "R2"), key=str
    )
    existing_rows = {ref.values for ref in initial_refs}

    def fresh_edges(start, count=4):
        rows = [ref.values for ref in initial_refs]
        edges = []
        i = start
        while len(edges) < count and i < start + 500:
            edge = (rows[i % len(rows)][0], rows[(i * 7 + 3) % len(rows)][1])
            if edge not in existing_rows and edge not in edges:
                edges.append(edge)
            i += 1
        return [TupleRef("R2", edge) for edge in edges]

    batches = [
        ("delete", initial_refs[0:5]),
        ("insert", fresh_edges(0)),
        ("delete", initial_refs[5:10]),
        ("insert", fresh_edges(100)),
        ("delete", initial_refs[10:15]),
        ("insert", fresh_edges(200)),
    ]
    probe_refs = initial_refs[20:24]
    queries = [QPATH_EXP, Q6]

    observations = []
    observed_lock = threading.Lock()
    stop_readers = threading.Event()
    errors = []

    def reader(seed):
        rng = random.Random(seed)
        try:
            while not stop_readers.is_set():
                op = rng.choice(("solve", "what_if", "evaluate"))
                query = rng.choice(queries)
                k = rng.randint(1, 2)
                with lock.read():
                    version = state["version"]
                    if op == "solve":
                        solution = session.solve(query, k)
                        record = (version, "solve", query.name, k,
                                  solution.removed, solution.objective)
                    elif op == "what_if":
                        entry = session.what_if(probe_refs, query).single
                        record = (version, "what_if", query.name, None,
                                  entry.outputs_removed, entry.witnesses_removed)
                    else:
                        result = session.evaluate(query)
                        record = (version, "evaluate", query.name, None,
                                  tuple(result.output_rows),
                                  tuple(packed_outputs(result)))
                with observed_lock:
                    observations.append(record)
        except Exception as exc:  # pragma: no cover - surfaced by assert
            errors.append(exc)

    def writer():
        try:
            for op, batch in batches:
                time.sleep(0.05)  # let readers pile up on this version
                with lock.write():
                    if op == "delete":
                        session.apply_deletions(batch)
                    else:
                        session.apply_insertions(batch)
                    state["version"] += 1
        except Exception as exc:  # pragma: no cover - surfaced by assert
            errors.append(exc)
        finally:
            time.sleep(0.05)
            stop_readers.set()

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors
    assert not any(t.is_alive() for t in threads)
    versions_seen = {record[0] for record in observations}
    assert 1 in versions_seen  # readers really raced the writer

    # Serial replay: same database, same mutation sequence, no concurrency.
    replay = Session(build())
    expected = {}
    for version in range(1, len(batches) + 2):
        for query in queries:
            result = replay.evaluate(query)
            expected[(version, "evaluate", query.name, None)] = (
                tuple(result.output_rows),
                tuple(packed_outputs(result)),
            )
            entry = replay.what_if(probe_refs, query).single
            expected[(version, "what_if", query.name, None)] = (
                entry.outputs_removed, entry.witnesses_removed,
            )
            for k in (1, 2):
                solution = replay.solve(query, k)
                expected[(version, "solve", query.name, k)] = (
                    solution.removed, solution.objective,
                )
        if version <= len(batches):
            op, batch = batches[version - 1]
            if op == "delete":
                replay.apply_deletions(batch)
            else:
                replay.apply_insertions(batch)

    for version, op, name, k, *payload in observations:
        assert tuple(payload) == expected[(version, op, name, k)]
    session.close()
    replay.close()


def test_concurrent_read_offs_race_the_removed_count_memo():
    """8 threads read mixed ``k`` off one cached curve entry at once.

    Each entry memoizes the removed-output count verified per ``k``; the
    threads race to fill it.  Every answer (``removed_outputs`` included)
    must equal a serial session's, and all reads must share one entry.
    """
    import random

    threads, reads = 8, 25
    query = "Qh(A) :- R1(A), R2(A, B), R3(B)"
    database = generate_zipf_path(r2_tuples=300, alpha=1.1, seed=17)
    with Session(database) as serial:
        total = serial.output_size(query)
        expected = {k: serial.solve(query, k) for k in range(1, total + 1)}
    rng = random.Random(31)
    plans = [[rng.randint(1, total) for _ in range(reads)] for _ in range(threads)]
    previous = sys.getswitchinterval()
    with Session(database) as shared:
        shared.solve(query, total)  # the one entry every read shares
        barrier = threading.Barrier(threads)

        def read_off(targets):
            barrier.wait()
            return [(k, shared.solve(query, k)) for k in targets]

        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as executor:
                answers = [pair for batch in executor.map(read_off, plans)
                           for pair in batch]
        finally:
            sys.setswitchinterval(previous)
        stats = shared.stats
    assert len(answers) == threads * reads
    for k, solution in answers:
        assert solution == expected[k], k
    assert (stats.curve_hits, stats.curve_misses) == (threads * reads, 1)
