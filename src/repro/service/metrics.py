"""Service counters and the ``/metrics`` Prometheus text exposition.

One :class:`ServiceMetrics` per service.  Everything is guarded by one
lock: updates come from the event loop *and* from solver threads, and a
metrics scrape must never observe a torn histogram.

The exposition follows the Prometheus text format (version 0.0.4):
label values are escaped (backslash, double quote, newline), every
histogram carries cumulative buckets ending in ``+Inf`` plus ``_sum`` and
``_count`` series, and each metric name gets exactly one ``# HELP`` /
``# TYPE`` pair regardless of how many label sets it spans.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: Upper bucket bounds (milliseconds) of the request latency histogram.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0, 30000.0,
)

_PREFIX = "repro_service"

#: HELP text for the gauges the service passes into :meth:`render`.
_GAUGE_HELP = {
    "pending_requests": "Solve-class requests admitted and not yet finished.",
    "databases_resident": "Databases currently resident in the registry LRU.",
    "databases_capacity": "Registry LRU capacity (resident database bound).",
    "batcher_queue_depth": "Solve requests queued behind an in-flight dispatch.",
}

#: HELP text for the counters the service passes into :meth:`render`.
_COUNTER_HELP = {
    "registry_evictions_total": "Databases evicted by registry LRU overflow.",
}

#: HELP text for the per-database labeled gauges (operator statistics and
#: curve-cache use).
_LABELED_GAUGE_HELP = {
    "operator_join_steps": "Join steps executed by the last observed solve.",
    "operator_witnesses": "Witnesses produced by the last observed solve.",
    "operator_mispredicted_steps":
        "Join steps whose cardinality estimate missed by >= the "
        "misprediction ratio in the last observed solve.",
    "operator_heavy_hitter_steps":
        "Join steps with a heavy-hitter build-side key distribution in the "
        "last observed solve.",
    "operator_max_expansion":
        "Largest per-step match expansion factor in the last observed solve.",
    "curve_cache_hits":
        "Solves read off a cached cost curve by the database's session.",
    "curve_cache_misses":
        "Cost curves the database's session computed (cache misses).",
    "answer_memo_bytes":
        "Encoded bytes of the solve answers the database's session memoizes.",
}

#: One latency histogram: (observation count, sum of ms, cumulative buckets).
_Histogram = Tuple[int, float, List[int]]


def _escape_label(value: object) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _observe(store: Dict[str, _Histogram], key: str, elapsed_ms: float) -> None:
    """Record one observation into the histogram stored under ``key``."""
    count, total, buckets = store.get(
        key, (0, 0.0, [0] * len(LATENCY_BUCKETS_MS))
    )
    buckets = list(buckets)
    for i, bound in enumerate(LATENCY_BUCKETS_MS):
        if elapsed_ms <= bound:
            buckets[i] += 1
    store[key] = (count + 1, total + elapsed_ms, buckets)


class ServiceMetrics:
    """Thread-safe counters/gauges/histograms for one service instance."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (endpoint, status code) -> completed request count.
        self.requests_total: Dict[Tuple[str, int], int] = defaultdict(int)
        self.in_flight = 0
        self.rejected_total = 0
        self.deadline_missed_total = 0
        self.batches_total = 0
        self.batched_requests_total = 0
        self.singleton_dispatch_total = 0
        self.solves_total = 0
        self.inline_answers_total = 0
        self.deletions_applied_total = 0
        self.insertions_applied_total = 0
        self.slow_requests_total = 0
        #: endpoint -> (count, sum_ms, cumulative bucket counts).
        self._latency: Dict[str, _Histogram] = {}
        #: span/stage name -> (count, sum_ms, cumulative bucket counts).
        self._stage_latency: Dict[str, _Histogram] = {}

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def request_started(self) -> None:
        with self._lock:
            self.in_flight += 1

    def request_finished(self, endpoint: str, status: int, elapsed_ms: float) -> None:
        with self._lock:
            self.in_flight -= 1
            self.requests_total[(endpoint, status)] += 1
            _observe(self._latency, endpoint, elapsed_ms)

    def stage_observed(self, stage: str, elapsed_ms: float) -> None:
        """One traced span completed: feed the per-stage latency histogram."""
        with self._lock:
            _observe(self._stage_latency, stage, elapsed_ms)

    def rejected(self) -> None:
        with self._lock:
            self.rejected_total += 1

    def deadline_missed(self) -> None:
        with self._lock:
            self.deadline_missed_total += 1

    def slow_request(self) -> None:
        """One request crossed the slow-query threshold (and was logged)."""
        with self._lock:
            self.slow_requests_total += 1

    def batch_dispatched(self, size: int) -> None:
        """A micro-batch of ``size`` coalesced requests hit ``solve_many``."""
        with self._lock:
            if size > 1:
                self.batches_total += 1
                self.batched_requests_total += size
            else:
                self.singleton_dispatch_total += 1
            self.solves_total += size

    def solve_dispatched(self) -> None:
        """One request bypassed the batcher (``batch: false`` or no batcher)."""
        with self._lock:
            self.singleton_dispatch_total += 1
            self.solves_total += 1

    def inline_answered(self) -> None:
        """One solve answered on the event loop from the answer memo."""
        with self._lock:
            self.inline_answers_total += 1
            self.solves_total += 1

    def deletions_applied(self, removed: int) -> None:
        with self._lock:
            self.deletions_applied_total += removed

    def insertions_applied(self, added: int) -> None:
        with self._lock:
            self.insertions_applied_total += added

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """A plain-dict view (``/healthz``, tests, the load harness)."""
        with self._lock:
            return {
                "requests_total": sum(self.requests_total.values()),
                "in_flight": self.in_flight,
                "rejected_total": self.rejected_total,
                "deadline_missed_total": self.deadline_missed_total,
                "batches_total": self.batches_total,
                "batched_requests_total": self.batched_requests_total,
                "singleton_dispatch_total": self.singleton_dispatch_total,
                "solves_total": self.solves_total,
                "inline_answers_total": self.inline_answers_total,
                "deletions_applied_total": self.deletions_applied_total,
                "insertions_applied_total": self.insertions_applied_total,
                "slow_requests_total": self.slow_requests_total,
            }

    def render(
        self,
        extra_gauges: Optional[Dict[str, float]] = None,
        extra_counters: Optional[Dict[str, int]] = None,
        labeled_gauges: Optional[Dict[str, Dict[str, float]]] = None,
        label: str = "database",
    ) -> str:
        """The Prometheus text exposition served at ``/metrics``.

        ``labeled_gauges`` maps metric name to ``{label value: gauge
        value}`` (one HELP/TYPE pair per metric, one series per label
        value).  The *caller* is responsible for bounding the label
        cardinality -- the service prunes to registry-resident database
        names before rendering (see docs/INVARIANTS.md).
        """
        with self._lock:
            lines: List[str] = []

            def counter(
                name: str, value: object, help_text: str, labels: str = ""
            ) -> None:
                lines.append(f"# HELP {_PREFIX}_{name} {help_text}")
                lines.append(f"# TYPE {_PREFIX}_{name} counter")
                lines.append(f"{_PREFIX}_{name}{labels} {value}")

            def histogram(base: str, help_text: str, label: str,
                          store: Dict[str, _Histogram]) -> None:
                if not store:
                    return
                # One HELP/TYPE per metric name (the text format forbids
                # repeating them per label set).
                lines.append(f"# HELP {base} {help_text}")
                lines.append(f"# TYPE {base} histogram")
                for key, (count, total, buckets) in sorted(store.items()):
                    escaped = _escape_label(key)
                    for bound, cumulative in zip(LATENCY_BUCKETS_MS, buckets):
                        lines.append(
                            f'{base}_bucket{{{label}="{escaped}",le="{bound}"}}'
                            f" {cumulative}"
                        )
                    lines.append(
                        f'{base}_bucket{{{label}="{escaped}",le="+Inf"}} {count}'
                    )
                    lines.append(f'{base}_sum{{{label}="{escaped}"}} {round(total, 3)}')
                    lines.append(f'{base}_count{{{label}="{escaped}"}} {count}')

            lines.append(f"# HELP {_PREFIX}_requests_total Completed HTTP requests.")
            lines.append(f"# TYPE {_PREFIX}_requests_total counter")
            for (endpoint, status), count in sorted(self.requests_total.items()):
                lines.append(
                    f'{_PREFIX}_requests_total{{endpoint="{_escape_label(endpoint)}",'
                    f'status="{status}"}} {count}'
                )
            lines.append(f"# HELP {_PREFIX}_in_flight Requests currently being served.")
            lines.append(f"# TYPE {_PREFIX}_in_flight gauge")
            lines.append(f"{_PREFIX}_in_flight {self.in_flight}")
            for name, value in sorted((extra_gauges or {}).items()):
                help_text = _GAUGE_HELP.get(name, f"Gauge {name}.")
                lines.append(f"# HELP {_PREFIX}_{name} {help_text}")
                lines.append(f"# TYPE {_PREFIX}_{name} gauge")
                lines.append(f"{_PREFIX}_{name} {value}")
            for name, series in sorted((labeled_gauges or {}).items()):
                if not series:
                    continue
                help_text = _LABELED_GAUGE_HELP.get(name, f"Gauge {name}.")
                lines.append(f"# HELP {_PREFIX}_{name} {help_text}")
                lines.append(f"# TYPE {_PREFIX}_{name} gauge")
                for label_value, value in sorted(series.items()):
                    lines.append(
                        f'{_PREFIX}_{name}{{{label}="{_escape_label(label_value)}"}}'
                        f" {value}"
                    )
            counter("rejected_total", self.rejected_total,
                    "Requests shed by admission control (HTTP 429).")
            counter("deadline_missed_total", self.deadline_missed_total,
                    "Requests that expired before or during dispatch (HTTP 504).")
            counter("batches_total", self.batches_total,
                    "Coalesced solve_many dispatches (batch size > 1).")
            counter("batched_requests_total", self.batched_requests_total,
                    "Solve requests served through a coalesced batch.")
            counter("singleton_dispatch_total", self.singleton_dispatch_total,
                    "Solve requests dispatched individually.")
            counter("solves_total", self.solves_total, "Solve requests executed.")
            counter("inline_answers_total", self.inline_answers_total,
                    "Solve requests answered from the answer memo on the event loop.")
            counter("deletions_applied_total", self.deletions_applied_total,
                    "Input tuples removed by /v1/apply_deletions.")
            counter("insertions_applied_total", self.insertions_applied_total,
                    "Input tuples added by /v1/apply_insertions.")
            counter("slow_requests_total", self.slow_requests_total,
                    "Requests recorded in the slow-query log.")
            for name, value in sorted((extra_counters or {}).items()):
                counter(name, value, _COUNTER_HELP.get(name, f"Counter {name}."))
            histogram(f"{_PREFIX}_request_latency_ms",
                      "Request latency per endpoint.", "endpoint", self._latency)
            histogram(f"{_PREFIX}_stage_latency_ms",
                      "Traced span duration per stage (solver threads).",
                      "stage", self._stage_latency)
            return "\n".join(lines) + "\n"


__all__ = ["LATENCY_BUCKETS_MS", "ServiceMetrics"]
