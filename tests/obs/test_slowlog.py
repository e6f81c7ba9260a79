"""The ring-buffer slow-query log."""

from __future__ import annotations

import pytest

from repro.obs.slowlog import SlowQueryLog


def test_threshold_gates_recording():
    log = SlowQueryLog(capacity=4, threshold_ms=100.0)
    assert not log.should_record(99.9)
    assert log.should_record(100.0)
    assert log.should_record(250.0)


def test_ring_buffer_keeps_newest_entries_first():
    log = SlowQueryLog(capacity=3, threshold_ms=0.0)
    for i in range(5):
        log.record({"trace_id": f"t{i}", "elapsed_ms": float(i)})
    assert len(log) == 3
    snap = log.snapshot()
    assert snap["capacity"] == 3
    assert snap["recorded_total"] == 5
    assert [e["trace_id"] for e in snap["entries"]] == ["t4", "t3", "t2"]


def test_snapshot_is_a_copy():
    log = SlowQueryLog(capacity=2, threshold_ms=10.0)
    log.record({"trace_id": "a"})
    snap = log.snapshot()
    snap["entries"].clear()
    assert len(log) == 1
    assert log.snapshot()["threshold_ms"] == 10.0


def test_capacity_validated():
    with pytest.raises(ValueError):
        SlowQueryLog(capacity=0)


def test_zero_threshold_log_records_every_request():
    """Threshold 0 is the ``/v1/debug/stats`` ring: every entry is kept
    (newest first) until capacity evicts the oldest."""
    log = SlowQueryLog(capacity=2, threshold_ms=0.0)
    assert log.should_record(0.0)
    for i in range(3):
        log.record({"n": i})
    snap = log.snapshot()
    assert (snap["capacity"], snap["recorded_total"]) == (2, 3)
    assert [entry["n"] for entry in snap["entries"]] == [2, 1]
