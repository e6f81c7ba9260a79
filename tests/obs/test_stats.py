"""Unit tests for the per-operator stats layer: gating, records, ring log."""

from __future__ import annotations

import json

from repro.obs.stats import (
    HEAVY_HITTER_RATIO,
    HEAVY_HITTER_TOP_K,
    MISPREDICTION_RATIO,
    StatsCollector,
    StatsLog,
    current_collector,
    heavy_hitter_summary,
    join_step_record,
    misestimate_factor,
    stats_active,
    use_stats,
    worst_misestimate,
)


# --------------------------------------------------------------------------- #
# Gating (the disabled hot path the CI overhead gate bounds)
# --------------------------------------------------------------------------- #
def test_no_collector_by_default():
    assert current_collector() is None
    assert not stats_active()


def test_use_stats_installs_and_restores():
    collector = StatsCollector()
    with use_stats(collector):
        assert current_collector() is collector
        assert stats_active()
    assert current_collector() is None


def test_disabled_collector_reports_inactive():
    with use_stats(StatsCollector(enabled=False)):
        assert current_collector() is None
        assert not stats_active()


def test_use_stats_nests():
    outer, inner = StatsCollector(), StatsCollector()
    with use_stats(outer):
        with use_stats(inner):
            assert current_collector() is inner
        assert current_collector() is outer


def test_export_returns_copies():
    collector = StatsCollector()
    collector.record({"op": "x", "n": 1})
    exported = collector.export()
    exported[0]["n"] = 99
    assert collector.records[0]["n"] == 1


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


# --------------------------------------------------------------------------- #
# StatsLog ring buffer
# --------------------------------------------------------------------------- #
def test_stats_log_ring_evicts_oldest():
    log = StatsLog(capacity=3)
    for i in range(5):
        log.record({"n": i})
    assert len(log) == 3
    snapshot = log.snapshot()
    assert snapshot["capacity"] == 3
    assert snapshot["recorded_total"] == 5
    # Newest first; the two oldest fell off.
    assert [entry["n"] for entry in snapshot["entries"]] == [4, 3, 2]
    json.dumps(snapshot)
