"""The benchmark's own checks: input generation and its metric names."""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from inputs import mutation_rounds, zipf_path
from repro.workloads.zipf import generate_zipf_path

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
)


@pytest.mark.parametrize("size, alpha, seed", [
    (600, 1.1, 13), (600, 0.5, 7), (900, 0.0, 3), (400, 2.0, 21),
])
def test_zipf_path_matches_library_generator(size, alpha, seed):
    fast = zipf_path(size, alpha, seed)
    slow = generate_zipf_path(r2_tuples=size, alpha=alpha, seed=seed)
    for name in ("R1", "R2", "R3"):
        assert fast.relation(name).attributes == slow.relation(name).attributes
        assert sorted(fast.relation(name).rows) == sorted(slow.relation(name).rows)


def test_mutation_rounds_are_seeded_and_exact():
    database = zipf_path(500, 1.1, 5)
    first = mutation_rounds(database, 4, 30, 15, seed=9)
    assert first == mutation_rounds(database, 4, 30, 15, seed=9)
    live = set(database.relation("R2").rows)
    for inserts, deletes in first:
        assert len(inserts) == 30 and len(deletes) == 15
        assert not any(ref.values in live for ref in inserts)
        live.update(ref.values for ref in inserts)
        assert all(ref.values in live for ref in deletes)
        live.difference_update(ref.values for ref in deletes)


def test_reported_metrics_match_benchmark_json():
    import layer_table
    from layers import Trace
    from run import END_TO_END

    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        END_TO_END.items())
    passes = SimpleNamespace(metrics={"latency_ms.p50": 1.0}, solve_ms=[1.0])
    reported = layer_table.metrics(passes, passes, Trace())
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit) for name, (_value, unit) in reported.items()]


def test_scenarios_are_the_declared_workloads():
    from workloads import SCENARIOS

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(SCENARIOS)


def test_chunked_scales_each_chunk_and_always_ends():
    from harness import LoopResult, chunked
    from itertools import cycle

    class Gauge:
        """Probes alternate 10 ms and 30 ms: every chunk's factor is 1/2."""

        REFERENCE_MS = 10.0

        def __init__(self):
            self.samples_ms = []
            self._next = cycle([10.0, 30.0])

        def scaled(self, work):
            before = self.samples_ms[-1] if self.samples_ms else next(self._next)
            value = work()
            self.samples_ms.append(next(self._next))
            return value, 2 * self.REFERENCE_MS / (before + self.samples_ms[-1])

    asked = []

    def idle_loop(seconds):
        # A chunk that sent nothing still counts its requested seconds.
        asked.append(seconds)
        return LoopResult([4.0], 0.0, [2.0])

    raw, scaled = chunked(Gauge(), 2.55, 1.0, idle_loop)
    assert asked == pytest.approx([1.0, 1.0, 0.55])
    assert raw.latencies_ms == [4.0] * 3
    assert scaled.latencies_ms == [2.0] * 3 and scaled.lateness_ms == [1.0] * 3


def test_self_time_and_unattributed_share(tmp_path):
    from layers import load

    dump = {
        "pid": 1,
        "threads": [{"name": "t", "counts": {"n": 2}, "spans": [
            ["outer", 0.0, 1.0, -1],
            ["inner", 0.2, 0.5, 0],
            ["inner", 0.6, 0.7, 0],
            ["open", 0.8, 0.0, 0],
        ]}],
        "intervals": [["service.http.request", 0.0, 2.0]],
        "service": {"solves_total": 3},
    }
    # An older dump of the same process is superseded by the later one.
    (tmp_path / "spans.1.0.json").write_text(json.dumps({**dump, "threads": []}))
    (tmp_path / "spans.1.1.json").write_text(json.dumps(dump))
    trace = load(tmp_path / "spans")
    assert trace.calls("outer") == 1 and trace.calls("inner") == 2
    assert trace.self_ms("outer") == pytest.approx(600.0)
    assert trace.self_ms("inner") == pytest.approx(400.0)
    assert trace.calls("open") == 0
    assert trace.counts == {"n": 2} and trace.service == {"solves_total": 3}
    assert trace.unattributed_share() == pytest.approx(0.5)
