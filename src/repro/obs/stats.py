"""Per-operator runtime statistics for plan introspection.

The tracing layer (:mod:`repro.obs.trace`) answers *where time went*; this
module answers *what the operators did*: build/probe sizes, distinct-key
counts, match-expansion factors, factorization dedup ratios and
heavy-hitter top-k summaries.  Those are exactly the inputs the
EXPLAIN subsystem (:mod:`repro.obs.explain`) turns into an
estimate-vs-actual cardinality ledger, and the measurements the planned
skew-robust radix join needs (heavy-hitter detection feeds the dynamic
hybrid-hash trade-off).

Collection follows the tracer's gating contract exactly: a
:class:`StatsCollector` is installed for a scope with :func:`use_stats`;
every instrumented kernel asks :func:`current_collector` once per call and
does **no work at all** when none is installed -- the disabled hot path is
one ``ContextVar.get()`` plus a ``None`` check, the same cost bounded by
the CI obs-overhead gate.  Records are plain JSON-safe dicts so they go
into service payloads unchanged.

Like the tracer, this module reads **no clocks** (REP005): statistics are
pure counts; any wall-clock stamps on persisted records are supplied by
the service tier.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: One operator record: plain JSON-safe values only.
StatsRecord = Dict[str, object]

#: An operator's actual cardinality counts as *misestimated* when it is off
#: from the uniform-independence estimate by at least this factor (either
#: direction).  Skewed key distributions break the uniformity assumption,
#: so this flag firing is the signal the skew-robust join work keys on.
MISPREDICTION_RATIO = 2.0

#: A build-side key distribution counts as *heavy-hitter skewed* when its
#: largest bucket is at least this many times the mean bucket.
HEAVY_HITTER_RATIO = 8.0

#: How many of the largest build-side buckets a join-step record keeps.
HEAVY_HITTER_TOP_K = 5


class StatsCollector:
    """An append-only sink of operator records for one logical operation.

    Not thread-safe by design (mirrors ``Tracer``): one collector belongs
    to one logical operation.
    """

    __slots__ = ("records", "enabled")

    def __init__(self, enabled: bool = True) -> None:
        self.records: List[StatsRecord] = []
        self.enabled = enabled

    def record(self, record: StatsRecord) -> None:
        """Append one operator record (callers pass JSON-safe dicts)."""
        self.records.append(record)

    def export(self) -> List[StatsRecord]:
        """The collected records as independent copies (JSON-safe)."""
        return [dict(record) for record in self.records]


_ACTIVE_STATS: "ContextVar[Optional[StatsCollector]]" = ContextVar(
    "repro_stats_collector", default=None
)


def current_collector() -> Optional[StatsCollector]:
    """The ambient collector, or ``None`` when collection is off.

    The one call every instrumented kernel makes before doing any stats
    work; the disabled path is a single ``ContextVar.get()``.
    """
    collector = _ACTIVE_STATS.get()
    if collector is not None and collector.enabled:
        return collector
    return None


def stats_active() -> bool:
    """Whether an enabled collector is installed in this context."""
    return current_collector() is not None


@contextmanager
def use_stats(collector: StatsCollector) -> Iterator[StatsCollector]:
    """Install ``collector`` as the ambient stats sink within the block."""
    token = _ACTIVE_STATS.set(collector)
    try:
        yield collector
    finally:
        _ACTIVE_STATS.reset(token)


# --------------------------------------------------------------------------- #
# Record builders (called from the instrumented kernels)
# --------------------------------------------------------------------------- #
def _json_value(value: object) -> object:
    """A JSON-safe rendering of one join-key value."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def misestimate_factor(estimated: Optional[float], actual: Optional[int]) -> Optional[float]:
    """How far off an estimate was, as a >= 1.0 symmetric ratio.

    ``None`` when either side is unknown.  Zero-cardinality corners use an
    additive guard instead of dividing by zero: an estimate of ``e`` against
    an actual of 0 (or vice versa) reports ``max(e, a) + 1``.
    """
    if estimated is None or actual is None:
        return None
    low = min(float(estimated), float(actual))
    high = max(float(estimated), float(actual))
    if low <= 0.0:
        return high + 1.0
    return high / low


def heavy_hitter_summary(
    bucket_sizes: Iterable[Tuple[object, int]],
    top_k: int = HEAVY_HITTER_TOP_K,
    ratio: float = HEAVY_HITTER_RATIO,
) -> Optional[StatsRecord]:
    """Skew summary of one build-side key distribution.

    ``bucket_sizes`` yields ``(key value, bucket size)`` pairs.  Returns
    ``None`` for an empty distribution, else a record with the distinct
    count, max/mean bucket sizes, their ratio (``skew``), the ``top_k``
    largest buckets (size-descending, key-rendering ascending on ties --
    deterministic across backends) and the ``heavy_hitter`` flag.
    """
    sizes: List[Tuple[object, int]] = [(key, int(count)) for key, count in bucket_sizes]
    if not sizes:
        return None
    total = sum(count for _key, count in sizes)
    mean = total / len(sizes)
    ranked = sorted(sizes, key=lambda item: (-item[1], str(_json_value(item[0]))))
    max_bucket = ranked[0][1]
    skew = max_bucket / mean if mean else 0.0
    return {
        "distinct_keys": len(sizes),
        "total": total,
        "max_bucket": max_bucket,
        "mean_bucket": round(mean, 3),
        "skew": round(skew, 3),
        "heavy_hitter": skew >= ratio,
        "top_k": [[_json_value(key), count] for key, count in ranked[:top_k]],
    }


def join_step_record(
    step: int,
    relation: str,
    build_rows: int,
    probe_rows: int,
    witnesses: int,
    shared: Sequence[str],
    bucket_sizes: Optional[Iterable[Tuple[object, int]]] = None,
) -> StatsRecord:
    """One hash-join step's operator record, estimate and flags included.

    The per-step estimate is the textbook uniform-independence one:
    ``probe_rows * build_rows / distinct_keys`` for a keyed step (every
    probe key assumed to match a mean-sized bucket), ``probe_rows *
    build_rows`` for a cross-product step, ``build_rows`` for the first
    atom.  ``witnesses`` is the step's actual output cardinality; the
    misestimation factor and flag compare the two.
    """
    record: StatsRecord = {
        "op": "join.atom",
        "step": step,
        "relation": relation,
        "build_rows": build_rows,
        "probe_rows": probe_rows,
        "witnesses": witnesses,
        "shared": list(shared),
        "expansion": round(witnesses / probe_rows, 4) if probe_rows else 0.0,
    }
    summary = heavy_hitter_summary(bucket_sizes) if bucket_sizes is not None else None
    if summary is not None:
        record["keys"] = summary
        estimated: Optional[float] = (
            probe_rows * build_rows / float(summary["distinct_keys"])  # type: ignore[arg-type]
        )
    elif not shared:
        estimated = float(build_rows) if step == 0 else float(probe_rows * build_rows)
    else:  # pragma: no cover - keyed step always has buckets
        estimated = None
    record["estimated"] = round(estimated, 3) if estimated is not None else None
    factor = misestimate_factor(estimated, witnesses)
    record["factor"] = round(factor, 3) if factor is not None else None
    record["misestimated"] = factor is not None and factor >= MISPREDICTION_RATIO
    return record


def worst_misestimate(records: Sequence[StatsRecord]) -> Optional[StatsRecord]:
    """The operator record with the largest misestimation factor, if any.

    Scans any record carrying a numeric ``"factor"`` (join steps, the
    output-cardinality ledger row); ties break on earliest record, so the
    answer is deterministic.  Returns a copy.
    """
    worst: Optional[StatsRecord] = None
    worst_factor = 0.0
    for record in records:
        factor = record.get("factor")
        if isinstance(factor, (int, float)) and float(factor) > worst_factor:
            worst_factor = float(factor)
            worst = record
    return dict(worst) if worst is not None else None


class StatsLog:
    """A bounded ring buffer of recent plan+stats records (service debug API).

    The stats twin of :class:`repro.obs.slowlog.SlowQueryLog`: entries are
    caller-assembled JSON-safe dicts (the service tier adds its wall-clock
    ``recorded_at`` -- this module reads no clocks), the newest ``capacity``
    are kept, and :meth:`snapshot` returns them newest-first.
    """

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = int(capacity)
        self._entries: Deque[StatsRecord] = deque(maxlen=self.capacity)
        self._recorded_total = 0
        self._lock = threading.Lock()

    def record(self, entry: StatsRecord) -> None:
        """Append one plan+stats entry (oldest entries fall off)."""
        with self._lock:
            self._entries.append(entry)
            self._recorded_total += 1

    def snapshot(self) -> StatsRecord:
        """The buffer as a JSON-safe dict, entries newest-first."""
        with self._lock:
            entries = list(self._entries)
            recorded = self._recorded_total
        return {
            "capacity": self.capacity,
            "recorded_total": recorded,
            "entries": list(reversed(entries)),
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


__all__ = [
    "HEAVY_HITTER_RATIO",
    "HEAVY_HITTER_TOP_K",
    "MISPREDICTION_RATIO",
    "StatsCollector",
    "StatsLog",
    "StatsRecord",
    "current_collector",
    "heavy_hitter_summary",
    "join_step_record",
    "misestimate_factor",
    "stats_active",
    "use_stats",
    "worst_misestimate",
]
