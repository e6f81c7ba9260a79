"""Tracing must never change answers, and worker spans must land home.

Two contracts:

* **Solution parity** -- a traced solve returns a byte-identical solution
  to an untraced one, on both backends, for a serial ``solve`` and for a
  ``workers=2`` ``solve_many`` batch.  Tracing observes; it never steers.
* **Cross-process propagation** -- with a real fork pool, the serialized
  child spans every worker returns are grafted under the dispatch span of
  the batch that shipped the task, labelled with their query group.
"""

from __future__ import annotations

import pytest

from repro.engine.backend import numpy_available
from repro.obs.trace import Tracer, use_tracer
from repro.session import Session
from repro.workloads.zipf import generate_zipf_path

QUERY = "Qh(A) :- R1(A), R2(A, B), R3(B)"
#: A second hard-leaf group, so a two-query batch reaches the worker pool.
SECOND = "Qb(B) :- R1(A), R2(A, B), R3(B)"

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def make_db():
    return generate_zipf_path(r2_tuples=300, alpha=0.8, seed=11)


def run_solve(backend: str, workers: int, tracer=None):
    """One fresh-session solve; returns (solution, exported spans).

    With ``workers > 1`` the solution is the first of a two-group
    ``solve_many`` batch, which dispatches both groups to the pool.
    """
    session = Session(make_db(), backend=backend, workers=workers)
    try:
        prepared = session.prepare(QUERY)

        def solve():
            if workers == 1:
                return session.solve(prepared, 3, heuristic="greedy")
            return session.solve_many(
                [(prepared, 3), (SECOND, 3)], heuristic="greedy"
            )[0]

        if tracer is None:
            return solve(), []
        with use_tracer(tracer):
            solution = solve()
        return solution, tracer.export()
    finally:
        session.close()


def span_names(spans):
    out = []
    stack = list(spans)
    while stack:
        node = stack.pop()
        out.append(node["name"])
        stack.extend(node.get("children", ()))
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", [1, 2])
def test_traced_solve_is_byte_identical(backend, workers):
    baseline, _ = run_solve(backend, workers)
    traced, spans = run_solve(backend, workers, Tracer())
    assert repr(traced) == repr(baseline)
    assert traced.objective == baseline.objective
    names = span_names(spans)
    assert ("session.solve" if workers == 1 else "session.solve_many") in names
    # Worker subtrees are grafted into the parent's tree, so the engine
    # and solver spans show up whichever process ran them.
    assert "engine.evaluate" in names
    assert "solver.greedy" in names


@pytest.mark.parametrize("backend", BACKENDS)
def test_unsampled_tracer_is_byte_identical_and_empty(backend):
    baseline, _ = run_solve(backend, 1)
    traced, spans = run_solve(backend, 1, Tracer(enabled=False))
    assert repr(traced) == repr(baseline)
    assert spans == []


def test_worker_spans_graft_under_their_dispatch_span():
    session = Session(make_db(), workers=2)
    try:
        tracer = Tracer()
        prepared = session.prepare(QUERY)
        with use_tracer(tracer):
            solutions = session.solve_many(
                [(prepared, 3), (SECOND, 3)], heuristic="greedy"
            )
        assert all(solution.removed_outputs >= 3 for solution in solutions)
        dispatches = [
            node
            for node in _walk(tracer.export())
            if node["name"] == "parallel.solve_groups"
        ]
        if not dispatches:  # the pool failed to start; serial path ran
            pytest.skip("worker pool unavailable on this platform")
        (dispatch,) = dispatches
        workers = [
            child
            for child in dispatch.get("children", ())
            if child["name"] == "worker.task"
        ]
        assert workers, "worker child spans were not grafted"
        groups = sorted(w["attrs"]["group"] for w in workers)
        assert groups == list(range(len(workers)))
        assert all(w["dur_ms"] >= 0.0 for w in workers)
        assert all(w["attrs"]["kind"] == "solve_group" for w in workers)
    finally:
        session.close()


def _walk(spans):
    out = []
    stack = list(spans)
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.get("children", ()))
    return out
