"""Per-layer self time and counts from the traced server's span dumps.

A span's self time is its duration minus the durations of its direct
children (spans nest per thread, so children never overlap).  Span names
are ``<module>.<operation>``, the module being one of the repository's
layers (service, session, engine, core, storage).
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Tuple


@dataclass
class Trace:
    """Everything the traced server processes of one pass recorded."""

    #: span name -> [calls, self seconds, total seconds]
    spans: Dict[str, List[float]] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    #: event-loop intervals by name: [(start, end), ...]
    intervals: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    service: Dict[str, int] = field(default_factory=dict)
    #: (start, end) of every synchronous span, for the coverage share.
    covered: List[Tuple[float, float]] = field(default_factory=list)

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def self_ms(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1] * 1000.0

    def total_ms(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2] * 1000.0

    def mean_self_ms(self, name: str) -> float:
        calls = self.calls(name)
        return self.self_ms(name) / calls if calls else 0.0

    def unattributed_share(self) -> float:
        """Share of request wall time during which no span was open."""
        requests = _union(self.intervals.get("service.http.request", []))
        busy = _union(self.covered + self.intervals.get("service.batch.wait", []))
        total = sum(end - start for start, end in requests)
        if not total:
            return 0.0
        return 1.0 - _overlap(requests, busy) / total


def load(prefix: Path) -> Trace:
    """Merge the last dump of every process written under ``prefix``."""
    latest: Dict[str, Tuple[int, Path]] = {}
    for path in prefix.parent.glob(prefix.name + ".*.json"):
        _prefix, pid, sequence, _json = path.name.rsplit(".", 3)
        if pid not in latest or int(sequence) > latest[pid][0]:
            latest[pid] = (int(sequence), path)
    trace = Trace()
    spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    counts: Dict[str, int] = defaultdict(int)
    intervals: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    service: Dict[str, int] = defaultdict(int)
    for _sequence, path in latest.values():
        dump = json.loads(path.read_text())
        for thread in dump["threads"]:
            records = thread["spans"]
            child_time = [0.0] * len(records)
            for name, start, end, parent in records:
                if end and parent >= 0:
                    child_time[parent] += end - start
            for index, (name, start, end, _parent) in enumerate(records):
                if not end:
                    continue  # still open when the dump was taken
                entry = spans[name]
                entry[0] += 1
                entry[1] += end - start - child_time[index]
                entry[2] += end - start
                trace.covered.append((start, end))
            for name, value in thread["counts"].items():
                counts[name] += value
        for name, start, end in dump["intervals"]:
            intervals[name].append((start, end))
        for name, value in dump["service"].items():
            service[name] += value
    trace.spans = dict(spans)
    trace.counts = dict(counts)
    trace.intervals = dict(intervals)
    trace.service = dict(service)
    return trace


def _union(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _overlap(a: List[Tuple[float, float]], b: List[Tuple[float, float]]) -> float:
    """Total length of the intersection of two sorted disjoint unions."""
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if end > start:
            total += end - start
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total
