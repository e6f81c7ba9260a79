"""Per-operator runtime statistics for plan introspection.

The tracing layer (:mod:`repro.obs.trace`) answers *where time went*; the
operator records answer *what the operators did*: build/probe sizes,
distinct-key counts, match-expansion factors, factorization dedup ratios
and heavy-hitter top-k summaries.  Those are exactly the inputs the
EXPLAIN subsystem (:mod:`repro.obs.explain`) turns into an
estimate-vs-actual cardinality ledger, and the measurements the planned
skew-robust radix join needs (heavy-hitter detection feeds the dynamic
hybrid-hash trade-off).

There is one instrumentation channel: an instrumented kernel puts its
record's fields, ``op`` included, on the span it already opens, behind
the usual ``if sp:`` guard -- so with tracing off no record is built at
all.  :func:`operator_records` reads them back from a tracer.  This
module keeps the pure record builders; records are plain JSON-safe dicts
so they go into service payloads unchanged.

Like the tracer, this module reads **no clocks** (REP005): statistics are
pure counts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.trace import Span, Tracer

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


def operator_records(tracer: Tracer) -> List[StatsRecord]:
    """The operator records of one traced run, in span closing order.

    Every span carrying an ``op`` attribute is one record: its attributes,
    copied.  Closing order is the order the kernels finish in (a join's
    steps before the join, the join before its evaluation).
    """
    records: List[StatsRecord] = []

    def walk(spans: List[Span]) -> None:
        for sp in spans:
            walk(sp.children)
            if "op" in sp.attrs:
                records.append(dict(sp.attrs))

    walk(tracer.roots)
    return records


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


__all__ = [
    "HEAVY_HITTER_RATIO",
    "HEAVY_HITTER_TOP_K",
    "MISPREDICTION_RATIO",
    "StatsRecord",
    "heavy_hitter_summary",
    "join_step_record",
    "misestimate_factor",
    "operator_records",
    "worst_misestimate",
]
