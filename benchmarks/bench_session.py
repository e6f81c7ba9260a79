"""Session API benchmarks: bind once, solve many, mutate incrementally.

Workload: the Figure 12 instance (TPC-H-like, 60 tuples, Q1, k from
ρ = 0.1) -- the same instance ``bench_fig12_bruteforce_time`` solves.

The headline acceptance check is incremental what-if speed:
``session.what_if(refs)`` answers the deletion-propagation question ("how
many witnesses / outputs disappear if ``refs`` go away?") through the delta
semijoin over cached packed provenance, and must be **at least 5x faster**
than the legacy alternative -- copying the database without the refs and
re-evaluating from scratch.  A parity test (``tests/test_session.py`` and the
assertions below) pins down that both routes produce identical witness sets.
"""

import time

import pytest

from repro.engine.evaluate import evaluate_in_context
from repro.experiments.harness import target_from_ratio
from repro.session import Session
from repro.workloads.queries import Q1
from repro.workloads.tpch import generate_tpch

SMALL_SIZE = 60
RATIO = 0.1

#: Acceptance threshold: incremental what-if vs fresh evaluate-after-deletion.
MIN_WHAT_IF_SPEEDUP = 5.0


def _best_of(fn, repeats=7, inner=40):
    """Min-of-means timing: robust against scheduler noise on CI runners."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


@pytest.fixture(scope="module")
def fig12_session():
    """A session bound to the Figure 12 instance, with Q1 prepared and solved."""
    database = generate_tpch(total_tuples=SMALL_SIZE, seed=7)
    session = Session(database)
    prepared = session.prepare(Q1)
    k = target_from_ratio(Q1, database, RATIO)
    # The deletion set under study is the solver's own recommendation: the
    # natural what-if workflow is "solve, then probe the suggested deletion".
    solution = session.solve(prepared, k, heuristic="greedy")
    refs = frozenset(solution.removed)
    session.what_if(refs, prepared)  # warm cache + postings index
    return session, prepared, refs, k


def test_what_if_speedup_and_parity(benchmark, fig12_session):
    """Acceptance: what_if >= 5x faster than fresh evaluate after deletion."""
    session, prepared, refs, _k = fig12_session
    database = session.database

    def incremental():
        entry = session.what_if(refs, prepared).single
        return entry.witnesses_removed, entry.outputs_removed

    def fresh():
        result = evaluate_in_context(Q1, database.without(refs), use_cache=False)
        return result.witness_count(), result.output_count()

    # Parity first: the delta semijoin and the fresh join agree exactly --
    # counts here, full witness sets below.
    entry = session.what_if(refs, prepared).single
    fresh_result = evaluate_in_context(Q1, database.without(refs), use_cache=False)
    assert entry.after.output_count() == fresh_result.output_count()
    assert set(entry.after.output_rows) == set(fresh_result.output_rows)
    assert {w.refs for w in entry.after.witnesses} == {
        w.refs for w in fresh_result.witnesses
    }

    incremental_seconds = _best_of(incremental)
    fresh_seconds = _best_of(fresh)
    speedup = fresh_seconds / incremental_seconds
    benchmark.extra_info.update(
        {
            "figure": "session",
            "what_if_us": round(incremental_seconds * 1e6, 1),
            "fresh_us": round(fresh_seconds * 1e6, 1),
            "speedup": round(speedup, 1),
            "deleted_refs": len(refs),
        }
    )
    assert speedup >= MIN_WHAT_IF_SPEEDUP, (
        f"what_if is only {speedup:.1f}x faster than a fresh evaluate "
        f"(need >= {MIN_WHAT_IF_SPEEDUP}x): "
        f"{incremental_seconds * 1e6:.1f}us vs {fresh_seconds * 1e6:.1f}us"
    )
    benchmark(incremental)


def test_what_if_materialized_view(benchmark, fig12_session):
    """Materializing the full post-deletion result (lazy `after` view)."""
    session, prepared, refs, _k = fig12_session

    def materialize():
        return session.what_if(refs, prepared).single.after.witness_count()

    survivors = materialize()
    assert survivors >= 0
    benchmark(materialize)


def test_prepared_solve_reuses_session_state(benchmark, fig12_session):
    """Steady-state session solve: evaluation cache + prepared plan reused."""
    session, prepared, _refs, k = fig12_session
    solution = benchmark(lambda: session.solve(prepared, k, heuristic="greedy"))
    assert solution.removed_outputs >= k
    benchmark.extra_info.update({"figure": "session", "k": k})


def test_solve_many_amortizes_curves(benchmark, fig12_session):
    """Batched solves share one evaluation and one curve per query."""
    session, prepared, _refs, k = fig12_session
    targets = [1, 2, k]

    def batch():
        return session.solve_many(
            [(prepared, target) for target in targets], heuristic="greedy"
        )

    solutions = benchmark(batch)
    assert [s.k for s in solutions] == targets
    benchmark.extra_info.update({"figure": "session", "targets": targets})


def test_apply_deletions_migrates_cache(benchmark):
    """Deletion + next evaluation, served by cache migration (no re-join)."""
    def scenario():
        database = generate_tpch(total_tuples=SMALL_SIZE, seed=7)
        session = Session(database)
        prepared = session.prepare(Q1)
        base = session.evaluate(prepared)
        refs = sorted(base.participating_refs(), key=repr)[:5]
        session.apply_deletions(refs)
        after = session.evaluate(prepared)
        assert session.stats.joins == 1  # the deletion did not trigger a re-join
        return after.output_count()

    outputs = benchmark(scenario)
    assert outputs > 0


# --------------------------------------------------------------------------- #
# Array-backend acceptance: NumPy-backed sessions >= 3x at the largest scale
# --------------------------------------------------------------------------- #
#: Largest configured scale for the backend comparison (the what-if probes
#: above deliberately stay tiny -- they pin incremental-vs-fresh latency,
#: which the auto backend routes to the Python kernels below the cost-model
#: floor).  This workload is the batched-session shape at engine scale.
BACKEND_SCALE_R2_TUPLES = 60_000
#: Acceptance floor (locally measured ~3.5-4.5x; 3x leaves CI headroom).
#: Below-floor measurements are re-measured once before failing, and
#: REPRO_SKIP_BACKEND_ACCEPTANCE=1 downgrades the assert to a report.
MIN_BACKEND_SPEEDUP = 3.0


def test_session_backend_speedup_at_scale(benchmark):
    """A fresh solve_many batch runs >= 3x faster on backend="numpy".

    Bind once, solve many: one evaluation plus one cost curve shared by the
    batch -- the session workflow the API was built for, at a scale where
    the array kernels dominate.  Solutions are asserted identical across
    backends; full packing parity lives in the backend-parity suite.
    """
    from repro.engine.backend import numpy_available
    from repro.query.parser import parse_query
    from repro.workloads.zipf import generate_zipf_path

    if not numpy_available():
        pytest.skip("numpy not installed: python backend only")

    query = parse_query("Qhard(A) :- R1(A), R2(A, B), R3(B)")
    database = generate_zipf_path(
        r2_tuples=BACKEND_SCALE_R2_TUPLES, alpha=1.1, seed=13
    )
    with Session(database, backend="python") as sizing:
        with sizing.activate():
            kmax = target_from_ratio(query, database, RATIO)
    targets = [max(1, kmax // 2), kmax]

    def fresh_batch(backend):
        with Session(database, backend=backend) as session:
            start = time.perf_counter()
            solutions = session.solve_many(
                [(query, k) for k in targets], heuristic="greedy"
            )
            return time.perf_counter() - start, solutions

    python_seconds, python_solutions = fresh_batch("python")
    numpy_seconds, numpy_solutions = fresh_batch("numpy")
    assert [s.removed for s in numpy_solutions] == [
        s.removed for s in python_solutions
    ]

    speedup = python_seconds / numpy_seconds
    if speedup < MIN_BACKEND_SPEEDUP:
        # One retake before failing (shared runners throttle unpredictably).
        python_seconds = min(python_seconds, fresh_batch("python")[0])
        numpy_seconds = min(numpy_seconds, fresh_batch("numpy")[0])
        speedup = python_seconds / numpy_seconds
    benchmark.extra_info.update(
        {
            "figure": "session-backend",
            "r2_tuples": BACKEND_SCALE_R2_TUPLES,
            "targets": targets,
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
            f"numpy-backed solve_many is only {speedup:.2f}x faster than python "
            f"(need >= {MIN_BACKEND_SPEEDUP}x): "
            f"{numpy_seconds * 1e3:.0f}ms vs {python_seconds * 1e3:.0f}ms"
        )

    def steady_state():
        with Session(database, backend="numpy") as session:
            return len(
                session.solve_many([(query, k) for k in targets], heuristic="greedy")
            )

    benchmark.pedantic(steady_state, rounds=1, iterations=1)


#: Acceptance floor for a warm solve read off the session's curve cache.
MIN_WARM_SPEEDUP = 20.0


def test_warm_solve_reads_cached_curve(benchmark):
    """A solve at a new ``k <= kmax`` reads the cached curve: >= 20x faster.

    Same 60k ``Qhard`` instance as the backend comparison above.  The cold
    solve at ``kmax`` evaluates the query and runs the greedy curve; a later
    solve at a smaller, never-requested ``k`` only re-reads the cached
    evaluation and curve, and must answer exactly like a fresh session.
    """
    from repro.core.adp import ratio_target
    from repro.query.parser import parse_query
    from repro.workloads.zipf import generate_zipf_path

    query = parse_query("Qhard(A) :- R1(A), R2(A, B), R3(B)")
    database = generate_zipf_path(
        r2_tuples=BACKEND_SCALE_R2_TUPLES, alpha=1.1, seed=13
    )
    with Session(database) as session:
        kmax = ratio_target(session.output_size(query), RATIO)
        session.clear_cache()  # the cold solve pays for the join as well
        start = time.perf_counter()
        session.solve(query, kmax)
        cold_seconds = time.perf_counter() - start
        warm_k = kmax // 2 + 1
        start = time.perf_counter()
        warm = session.solve(query, warm_k)
        warm_seconds = time.perf_counter() - start
        assert session.stats.curve_hits == 1
        with Session(database) as fresh:
            expected = fresh.solve(query, warm_k)
        assert (warm.objective, warm.removed, warm.method) == (
            expected.objective, expected.removed, expected.method
        )
        speedup = cold_seconds / warm_seconds
        benchmark.extra_info.update(
            {
                "figure": "session-curve-cache",
                "backend": session.backend,
                "kmax": kmax,
                "warm_k": warm_k,
                "cold_ms": round(cold_seconds * 1e3, 1),
                "warm_ms": round(warm_seconds * 1e3, 2),
                "speedup": round(speedup, 1),
            }
        )
        assert speedup >= MIN_WARM_SPEEDUP, (
            f"a warm solve is only {speedup:.1f}x faster than the cold one "
            f"(need >= {MIN_WARM_SPEEDUP}x): "
            f"{warm_seconds * 1e3:.1f}ms vs {cold_seconds * 1e3:.0f}ms"
        )
        benchmark(lambda: session.solve(query, warm_k))


# --------------------------------------------------------------------------- #
# HTAP rounds: a what-if right after a write pays for the update, not a reindex
# --------------------------------------------------------------------------- #
#: One round: insert this many fresh ``R2`` edges, delete this many live
#: ones, then probe a what-if on this many live ``R2`` refs.
HTAP_INSERTS, HTAP_DELETES, HTAP_PROBE = 500, 250, 50
HTAP_ROUNDS = 4
#: Ceiling on (first what-if on a new version) / (steady-state what-if on the
#: same version), medians over the rounds, numpy backend.  Measured 3.1-3.2x
#: on a 2-core x86 box (first ~11.3 ms, mostly the lazy CSR postings rebuild's
#: argsort; steady ~3.6 ms); 7x keeps over 2x headroom.  Postings built as a
#: dict of per-tid array views read ~38x (first ~129 ms).
MAX_FIRST_WHAT_IF_RATIO = 7.0


def _htap_round(database, rng):
    """``(inserted, deleted, probe, second probe)`` refs for one round."""
    from repro.data.relation import TupleRef

    live = sorted(database.relation("R2").rows)
    a_values = sorted({a for a, _b in live})
    b_values = sorted({b for _a, b in live})
    stored = set(live)
    inserted = []
    while len(inserted) < HTAP_INSERTS:
        edge = (rng.choice(a_values), rng.choice(b_values))
        if edge not in stored:
            stored.add(edge)
            inserted.append(edge)
    deleted = rng.sample(live, HTAP_DELETES)
    survivors = sorted(stored - set(deleted))
    probes = [rng.sample(survivors, HTAP_PROBE) for _ in range(2)]
    return [
        [TupleRef("R2", edge) for edge in edges]
        for edges in (inserted, deleted, *probes)
    ]


def test_what_if_after_mutation_skips_reindex(benchmark):
    """The first what-if on each new version costs <= 7x a steady one.

    htap-style rounds on the 60k Zipf path (insert 500, delete 250, what-if
    on 50 ``R2`` refs).  Every mutation leaves the ndarray provenance's
    postings unbuilt, so the first probe of a version rebuilds them lazily;
    the second probe on that version reads them.  Counts must equal a fresh
    session on the mutated database.
    """
    import random
    import statistics

    from repro.engine.backend import numpy_available
    from repro.query.parser import parse_query
    from repro.workloads.zipf import generate_zipf_path

    if not numpy_available():
        pytest.skip("numpy not installed: CSR postings are the numpy path")

    query = parse_query("Qhard(A) :- R1(A), R2(A, B), R3(B)")
    database = generate_zipf_path(
        r2_tuples=BACKEND_SCALE_R2_TUPLES, alpha=1.1, seed=13
    )
    rng = random.Random(13)
    firsts, steadies = [], []
    with Session(database, backend="numpy") as session:
        session.evaluate(query)
        for _ in range(HTAP_ROUNDS):
            inserted, deleted, probe, second = _htap_round(session.database, rng)
            session.apply_insertions(inserted)
            session.apply_deletions(deleted)
            start = time.perf_counter()
            entry = session.what_if(probe, query).single
            middle = time.perf_counter()
            session.what_if(second, query)
            firsts.append(middle - start)
            steadies.append(time.perf_counter() - middle)
            with Session(session.database.copy(), backend="numpy") as fresh:
                expected = fresh.what_if(probe, query).single
            assert (entry.witnesses_removed, entry.outputs_removed) == (
                expected.witnesses_removed, expected.outputs_removed
            )
        first_ms = statistics.median(firsts) * 1e3
        steady_ms = statistics.median(steadies) * 1e3
        ratio = first_ms / steady_ms
        benchmark.extra_info.update(
            {
                "figure": "session-htap-what-if",
                "rounds": HTAP_ROUNDS,
                "first_ms": round(first_ms, 2),
                "steady_ms": round(steady_ms, 2),
                "ratio": round(ratio, 2),
            }
        )
        assert ratio <= MAX_FIRST_WHAT_IF_RATIO, (
            f"the first what-if after a mutation takes {ratio:.1f}x a steady "
            f"one (ceiling {MAX_FIRST_WHAT_IF_RATIO}x): "
            f"{first_ms:.1f}ms vs {steady_ms:.1f}ms"
        )
        benchmark(lambda: session.what_if(probe, query).single.outputs_removed)


# --------------------------------------------------------------------------- #
# HTAP read: a singleton solve right after a write rebuilds Q6's curve
# --------------------------------------------------------------------------- #
def test_singleton_solve_after_mutation(benchmark):
    """A Q6 solve after one htap round runs >= 3x faster on backend="numpy".

    One round on the 60k Zipf path (insert 500 ``R2`` edges, delete 250),
    then ``Q6``: the write dropped the cached curve, so the solve migrates
    the evaluation and rebuilds the Singleton curve from the packed
    provenance (a tid-level bincount on numpy).  Both backends must return
    the same answer.
    """
    import os
    import random

    from repro.engine.backend import numpy_available
    from repro.workloads.queries import Q6
    from repro.workloads.zipf import generate_zipf_path

    if not numpy_available():
        pytest.skip("numpy not installed: python backend only")

    database = generate_zipf_path(
        r2_tuples=BACKEND_SCALE_R2_TUPLES, alpha=1.1, seed=13
    )
    inserted, deleted, _probe, _second = _htap_round(database, random.Random(17))
    k = target_from_ratio(Q6, database, RATIO)

    def solve_after_round(backend):
        with Session(database.copy(), backend=backend) as session:
            session.solve(Q6, k)
            session.apply_insertions(inserted)
            session.apply_deletions(deleted)
            start = time.perf_counter()
            solution = session.solve(Q6, k)
            return time.perf_counter() - start, solution

    python_seconds, python_solution = solve_after_round("python")
    numpy_seconds, numpy_solution = solve_after_round("numpy")
    assert (numpy_solution.objective, numpy_solution.removed) == (
        python_solution.objective, python_solution.removed
    )
    speedup = python_seconds / numpy_seconds
    if speedup < MIN_BACKEND_SPEEDUP:
        # One retake before failing (shared runners throttle unpredictably).
        python_seconds = min(python_seconds, solve_after_round("python")[0])
        numpy_seconds = min(numpy_seconds, solve_after_round("numpy")[0])
        speedup = python_seconds / numpy_seconds
    benchmark.extra_info.update(
        {
            "figure": "session-htap-singleton",
            "r2_tuples": BACKEND_SCALE_R2_TUPLES,
            "k": k,
            "python_ms": round(python_seconds * 1e3, 1),
            "numpy_ms": round(numpy_seconds * 1e3, 1),
            "speedup": round(speedup, 2),
        }
    )
    if os.environ.get("REPRO_SKIP_BACKEND_ACCEPTANCE") == "1":
        print(f"singleton backend speedup {speedup:.2f}x (acceptance assert skipped)")
    else:
        assert speedup >= MIN_BACKEND_SPEEDUP, (
            f"numpy Q6 solve after a write is only {speedup:.2f}x faster than "
            f"python (need >= {MIN_BACKEND_SPEEDUP}x): "
            f"{numpy_seconds * 1e3:.1f}ms vs {python_seconds * 1e3:.1f}ms"
        )
    benchmark.pedantic(lambda: solve_after_round("numpy"), rounds=1, iterations=1)
