"""Unit tests for the tracing core: span nesting, null path, export."""

from __future__ import annotations

import json
import pickle

from repro.obs.trace import (
    NULL_SPAN,
    Tracer,
    current_tracer,
    new_trace_id,
    span,
    tracing_active,
    use_tracer,
)


def test_span_is_null_without_tracer():
    assert not tracing_active()
    assert current_tracer() is None
    sp = span("engine.join", atoms=3)
    assert sp is NULL_SPAN
    assert not sp
    with sp:
        sp.set(rows=1)  # every method a no-op


def test_disabled_tracer_still_returns_null_span():
    tracer = Tracer(enabled=False)
    with use_tracer(tracer):
        assert current_tracer() is tracer
        assert not tracing_active()
        assert span("engine.join") is NULL_SPAN
    assert tracer.roots == []


def test_spans_nest_and_export_relative_offsets():
    tracer = Tracer("abc123")
    with use_tracer(tracer):
        assert tracing_active()
        with span("session.solve", query="Q1") as root:
            assert root
            with span("engine.evaluate") as inner:
                inner.set(cache="miss", witnesses=7)
            with span("solver.greedy"):
                pass
    assert len(tracer.roots) == 1
    exported = tracer.export()
    (tree,) = exported
    assert tree["name"] == "session.solve"
    assert tree["attrs"] == {"query": "Q1"}
    assert tree["offset_ms"] == 0.0
    names = [child["name"] for child in tree["children"]]
    assert names == ["engine.evaluate", "solver.greedy"]
    evaluate = tree["children"][0]
    assert evaluate["attrs"] == {"cache": "miss", "witnesses": 7}
    # Offsets are relative to the parent and non-decreasing in tree order.
    offsets = [child["offset_ms"] for child in tree["children"]]
    assert offsets == sorted(offsets)
    assert all(offset >= 0.0 for offset in offsets)
    # The export round-trips through both JSON and pickle.
    assert json.loads(json.dumps(exported)) == exported
    assert pickle.loads(pickle.dumps(exported)) == exported


def test_children_sum_within_parent_duration():
    tracer = Tracer()
    with use_tracer(tracer):
        with span("parent"):
            for _ in range(3):
                with span("child"):
                    sum(range(1000))
    (tree,) = tracer.export()
    child_total = sum(c["dur_ms"] for c in tree["children"])
    assert child_total <= tree["dur_ms"] + 0.001


def test_use_tracer_shields_against_leaked_outer_spans():
    outer = Tracer()
    with use_tracer(outer):
        with span("outer.root"):
            inner = Tracer()
            with use_tracer(inner):
                with span("inner.root"):
                    pass
            # The inner span became a root of the inner tracer, not a child
            # of outer.root.
            assert [r.name for r in inner.roots] == ["inner.root"]
        assert [r.name for r in outer.roots] == ["outer.root"]
        assert outer.roots[0].children == []


def test_trace_ids_are_fresh_hex():
    ids = {new_trace_id() for _ in range(32)}
    assert len(ids) == 32
    assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)


def test_tracer_generates_id_when_not_supplied():
    assert len(Tracer().trace_id) == 16
    assert Tracer("fixed").trace_id == "fixed"
