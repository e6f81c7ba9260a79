"""Tracing must never change answers.

A traced solve returns a byte-identical solution to an untraced one, on
both backends, for a single ``solve`` and for a two-group ``solve_many``
batch.  Tracing observes; it never steers.
"""

from __future__ import annotations

import pytest

from repro.engine.backend import numpy_available
from repro.obs.trace import Tracer, use_tracer
from repro.session import Session
from repro.workloads.zipf import generate_zipf_path

QUERY = "Qh(A) :- R1(A), R2(A, B), R3(B)"
#: A second hard-leaf group, so a two-query batch solves two curves.
SECOND = "Qb(B) :- R1(A), R2(A, B), R3(B)"

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def make_db():
    return generate_zipf_path(r2_tuples=300, alpha=0.8, seed=11)


def run_solve(backend: str, method: str, tracer=None):
    """One fresh-session solve; returns (solution, exported spans).

    With ``method="solve_many"`` the solution is the first of a two-group
    batch.
    """
    session = Session(make_db(), backend=backend)
    try:
        prepared = session.prepare(QUERY)

        def solve():
            if method == "solve":
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
@pytest.mark.parametrize("method", ["solve", "solve_many"])
def test_traced_solve_is_byte_identical(backend, method):
    baseline, _ = run_solve(backend, method)
    traced, spans = run_solve(backend, method, Tracer())
    assert repr(traced) == repr(baseline)
    assert traced.objective == baseline.objective
    names = span_names(spans)
    assert f"session.{method}" in names
    assert "engine.evaluate" in names
    assert "solver.greedy" in names


@pytest.mark.parametrize("backend", BACKENDS)
def test_unsampled_tracer_is_byte_identical_and_empty(backend):
    baseline, _ = run_solve(backend, "solve")
    traced, spans = run_solve(backend, "solve", Tracer(enabled=False))
    assert repr(traced) == repr(baseline)
    assert spans == []
