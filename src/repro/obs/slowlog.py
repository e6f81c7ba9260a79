"""The ring-buffer slow-query log behind ``GET /v1/debug/slow``.

A :class:`SlowQueryLog` keeps the last *capacity* requests that exceeded
the latency threshold, each entry a plain JSON-ready dict the service
assembles: trace id, route, database/version, plan fingerprints, the
worst-misestimated operator record (``worst_misestimate``, read off the
same spans -- a badly misestimated join step is the usual culprit behind
a slow query), elapsed milliseconds, a
wall-clock timestamp (supplied by the caller -- this module reads no
clock at all) and the serialized span tree when tracing was on.  One
lock guards the deque: entries are recorded from solver threads and read
from the event loop.  With threshold 0 the same class backs
``GET /v1/debug/stats``, the ring of recent plan+stats records.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, List


class SlowQueryLog:
    """Bounded, thread-safe forensics buffer for over-threshold requests."""

    def __init__(self, capacity: int = 32, threshold_ms: float = 250.0) -> None:
        if capacity < 1:
            raise ValueError(f"slow-query log capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.threshold_ms = float(threshold_ms)
        self._lock = threading.Lock()
        self._entries: "Deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self._recorded_total = 0

    def should_record(self, elapsed_ms: float) -> bool:
        return elapsed_ms >= self.threshold_ms

    def record(self, entry: Dict[str, Any]) -> None:
        with self._lock:
            self._entries.append(entry)
            self._recorded_total += 1

    def snapshot(self) -> Dict[str, Any]:
        """The JSON body of ``GET /v1/debug/slow`` (newest entry first)."""
        with self._lock:
            entries: List[Dict[str, Any]] = list(self._entries)
            recorded = self._recorded_total
        entries.reverse()
        return {
            "threshold_ms": self.threshold_ms,
            "capacity": self.capacity,
            "recorded_total": recorded,
            "entries": entries,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


__all__ = ["SlowQueryLog"]
