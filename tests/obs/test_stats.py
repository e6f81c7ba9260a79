"""Unit tests for the per-operator stats layer: span records, builders."""

from __future__ import annotations

import json

from repro.data.database import Database
from repro.obs.stats import (
    HEAVY_HITTER_RATIO,
    HEAVY_HITTER_TOP_K,
    MISPREDICTION_RATIO,
    heavy_hitter_summary,
    join_step_record,
    misestimate_factor,
    operator_records,
    worst_misestimate,
)
from repro.obs.trace import Tracer, span, use_tracer
from repro.session import Session


# --------------------------------------------------------------------------- #
# Records ride on spans
# --------------------------------------------------------------------------- #
def _traced(run, tracer=None):
    tracer = tracer or Tracer()
    with use_tracer(tracer):
        run()
    return tracer


def test_operator_records_are_op_tagged_spans_in_closing_order():
    def run():
        with span("outer") as outer:
            with span("inner") as inner:
                inner.set(op="a", n=1)
            with span("untagged") as untagged:
                untagged.set(n=2)
            outer.set(op="b", n=3)

    records = operator_records(_traced(run))
    assert records == [{"op": "a", "n": 1}, {"op": "b", "n": 3}]


def test_operator_records_are_copies():
    def run():
        with span("x") as sp:
            sp.set(op="x", n=1)

    tracer = _traced(run)
    records = operator_records(tracer)
    records[0]["n"] = 99
    assert tracer.roots[0].attrs["n"] == 1


def test_disabled_tracer_yields_no_operator_records():
    database = Database.from_dict({"R": ["A"]}, {"R": [(1,), (2,)]})
    with Session(database, backend="python") as session:
        tracer = _traced(lambda: session.evaluate("Q(A) :- R(A)"),
                         Tracer(enabled=False))
    assert tracer.roots == []
    assert operator_records(tracer) == []


def test_engine_spans_carry_the_join_step_records():
    database = Database.from_dict(
        {"R": ["A", "B"], "S": ["B"]},
        {"R": [(i, i % 3) for i in range(12)], "S": [(0,), (1,)]},
    )
    with Session(database, backend="python") as session:
        tracer = _traced(lambda: session.evaluate("Q(A) :- R(A, B), S(B)"))
    records = operator_records(tracer)
    assert [r["op"] for r in records] == [
        "join.atom", "join.atom", "backend", "factorize", "evaluate",
    ]
    # The keyed step's span carries join_step_record's fields verbatim.
    assert records[1] == join_step_record(1, "S", 2, 12, 8, ["B"], [(0, 1), (1, 1)])
    assert records[-1] == {
        "op": "evaluate", "backend": "python", "cache": "miss",
        "witnesses": 8, "outputs": 8,
    }


# --------------------------------------------------------------------------- #
# misestimate_factor
# --------------------------------------------------------------------------- #
def test_misestimate_factor_symmetric():
    assert misestimate_factor(10.0, 20) == misestimate_factor(20.0, 10) == 2.0
    assert misestimate_factor(5.0, 5) == 1.0


def test_misestimate_factor_zero_guard():
    # Additive guard instead of dividing by zero.
    assert misestimate_factor(4.0, 0) == 5.0
    assert misestimate_factor(0.0, 3) == 4.0
    assert misestimate_factor(0.0, 0) == 1.0


def test_misestimate_factor_unknown_sides():
    assert misestimate_factor(None, 5) is None
    assert misestimate_factor(5.0, None) is None


# --------------------------------------------------------------------------- #
# heavy_hitter_summary
# --------------------------------------------------------------------------- #
def test_heavy_hitter_summary_empty():
    assert heavy_hitter_summary([]) is None


def test_heavy_hitter_summary_uniform_is_silent():
    summary = heavy_hitter_summary([(k, 3) for k in range(10)])
    assert summary["distinct_keys"] == 10
    assert summary["total"] == 30
    assert summary["max_bucket"] == 3
    assert summary["skew"] == 1.0
    assert not summary["heavy_hitter"]


def test_heavy_hitter_summary_flags_skew():
    # One bucket holding 100 of 109 tuples: max/mean far beyond the ratio.
    buckets = [("hot", 100)] + [(k, 1) for k in range(9)]
    summary = heavy_hitter_summary(buckets)
    assert summary["heavy_hitter"]
    assert summary["skew"] >= HEAVY_HITTER_RATIO
    assert summary["top_k"][0] == ["hot", 100]
    assert len(summary["top_k"]) == min(HEAVY_HITTER_TOP_K, len(buckets))


def test_heavy_hitter_top_k_deterministic_on_ties():
    # Equal-sized buckets rank by string rendering of the key: stable
    # across dict iteration order and backends.
    summary = heavy_hitter_summary([("b", 2), ("a", 2), ("c", 2)])
    assert [key for key, _count in summary["top_k"]] == ["a", "b", "c"]


def test_heavy_hitter_summary_is_json_safe():
    summary = heavy_hitter_summary([((1, 2), 4), (None, 1)])
    json.dumps(summary)  # tuple keys rendered via repr


# --------------------------------------------------------------------------- #
# join_step_record
# --------------------------------------------------------------------------- #
def test_join_step_record_keyed_estimate():
    # 20 probe rows x 40 build rows / 4 distinct keys -> estimate 200.
    buckets = [(k, 10) for k in range(4)]
    record = join_step_record(1, "R", 40, 20, 200, ["A"], buckets)
    assert record["op"] == "join.atom"
    assert record["estimated"] == 200.0
    assert record["factor"] == 1.0
    assert not record["misestimated"]
    assert record["expansion"] == 10.0
    assert record["keys"]["distinct_keys"] == 4


def test_join_step_record_misestimated():
    buckets = [(k, 10) for k in range(4)]
    # Estimate 200, actual 600: off by 3x >= MISPREDICTION_RATIO.
    record = join_step_record(1, "R", 40, 20, 600, ["A"], buckets)
    assert record["factor"] == 3.0
    assert record["factor"] >= MISPREDICTION_RATIO
    assert record["misestimated"]


def test_join_step_record_first_atom_and_cross_product():
    first = join_step_record(0, "R", 40, 0, 40, [], None)
    assert first["estimated"] == 40.0
    assert not first["misestimated"]
    cross = join_step_record(1, "S", 5, 8, 40, [], None)
    assert cross["estimated"] == 40.0
    assert cross["factor"] == 1.0


# --------------------------------------------------------------------------- #
# worst_misestimate
# --------------------------------------------------------------------------- #
def test_worst_misestimate_picks_largest_factor():
    records = [
        {"op": "join.atom", "step": 0, "factor": 1.5},
        {"op": "join.atom", "step": 1, "factor": 4.0},
        {"op": "backend"},  # no factor: ignored
        {"op": "join.atom", "step": 2, "factor": 2.0},
    ]
    worst = worst_misestimate(records)
    assert worst["step"] == 1
    worst["step"] = 99  # a copy: the source record is untouched
    assert records[1]["step"] == 1


def test_worst_misestimate_empty():
    assert worst_misestimate([]) is None
    assert worst_misestimate([{"op": "backend"}]) is None
