"""Structured tracing, profiling and slow-query forensics (zero deps).

See ``docs/OBSERVABILITY.md`` for the span taxonomy, the attribute schema
and the overhead contract.  The public surface:

* :func:`span` / :func:`use_tracer` / :class:`Tracer` -- instrumentation
  (``repro.obs.trace``);
* :func:`render_span_tree` / :func:`aggregate_stage_ms` /
  :func:`load_trace` -- text profiles and stage rollups
  (``repro.obs.render``);
* :class:`SlowQueryLog` -- the service's over-threshold ring buffer
  (``repro.obs.slowlog``);
* :func:`operator_records` -- the per-operator statistics instrumented
  kernels leave on their spans (``repro.obs.stats``); the EXPLAIN
  subsystem consuming them lives in ``repro.obs.explain`` (imported
  directly, not re-exported here, because it reaches into the session
  tier lazily).
"""

from repro.obs.render import aggregate_stage_ms, load_trace, render_span_tree
from repro.obs.slowlog import SlowQueryLog
from repro.obs.stats import operator_records
from repro.obs.trace import (
    NULL_SPAN,
    NullSpan,
    Span,
    SpanDict,
    Tracer,
    current_tracer,
    new_trace_id,
    span,
    tracing_active,
    use_tracer,
)

__all__ = [
    "NULL_SPAN",
    "NullSpan",
    "SlowQueryLog",
    "Span",
    "SpanDict",
    "Tracer",
    "aggregate_stage_ms",
    "current_tracer",
    "load_trace",
    "new_trace_id",
    "operator_records",
    "render_span_tree",
    "span",
    "tracing_active",
    "use_tracer",
]
