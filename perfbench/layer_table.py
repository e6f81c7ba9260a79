"""The per-layer report of a traced run (``--trace 1``).

Prints every span name with its calls, self time and share, the layer
split each workload was chosen for, and returns the per-layer metrics of
``BENCHMARK.json``:

* ``<span>_ms`` -- mean self time per call, for the spans every workload
  calls;
* ``<span>_share`` -- self time as a share of all traced self time, for
  the spans only some workloads call (a share, not a time, so a layer a
  workload never enters reads 0);
* counts and ratios.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple

from layers import Trace, load

#: The repository's modules, as span-name prefixes.
LAYERS = ("service", "session", "engine", "core", "storage")

#: Spans every workload enters: reported as mean self ms per call.
MEAN_MS = (
    "service.serialize.payload",
    "service.serialize.decode",
    "service.registry.register",
    "session.prepare",
    "session.solve_many",
    "engine.evaluate",
    "engine.intern",
    "engine.join",
)

#: Spans (or span prefixes) only some workloads enter: reported as shares.
SHARES = (
    "core.greedy.curve",
    "core.singleton.curve",
    "engine.provenance",
    "engine.delta.insert",
    "engine.delta.filter",
    "engine.delta.counts",
    "session.apply",
    "session.what_if",
    "service.registry.write",
    "storage.log.append",
    "storage.snapshot.write",
    "storage.load",
)


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _self_ms(trace: Trace, prefix: str) -> float:
    return sum(trace.self_ms(name) for name in trace.spans
               if name == prefix or name.startswith(prefix + "."))


def metrics(plain, traced, trace: Trace) -> Dict[str, Tuple[float, str]]:
    counts = trace.counts
    service = trace.service
    all_self = sum(trace.self_ms(name) for name in trace.spans)
    waits = [end - start for start, end in trace.intervals.get("service.batch.wait", [])]
    job_ms = _per(counts.get("service.job.solve.request_us", 0) / 1000.0,
                  counts.get("service.job.solve.requests", 0))
    greedy_runs = trace.calls("core.greedy.curve")
    solves = service.get("solves_total", 0)
    dispatches = (service.get("batches_total", 0)
                  + service.get("singleton_dispatch_total", 0))
    requests = len(trace.intervals.get("service.http.request", []))
    hits = counts.get("engine.cache.hits", 0)
    misses = counts.get("engine.cache.misses", 0)
    out: Dict[str, Tuple[float, str]] = {
        "service.http.overhead_ms": (
            _per(sum(traced.solve_ms), len(traced.solve_ms)) - job_ms, "ms"),
        "service.batch.wait_ms": (_per(sum(waits) * 1000.0, len(waits)), "ms"),
        "service.batch.size_mean": (_per(solves, dispatches), "count"),
        "service.admission.rejected": (service.get("rejected_total", 0), "count"),
    }
    for name in MEAN_MS:
        out[f"{name}_ms"] = (trace.mean_self_ms(name), "ms")
    out["core.adp.verify_ms"] = (trace.mean_self_ms("core.adp.solve"), "ms")
    out["session.prepare.calls"] = (_per(trace.calls("session.prepare"), requests), "count")
    out["engine.cache.hit_ratio"] = (_per(hits, hits + misses), "ratio")
    out["core.adp.curve.calls"] = (_per(trace.calls("core.adp.curve"), solves), "count")
    out["core.greedy.picks"] = (
        _per(trace.calls("engine.provenance.remove"), greedy_runs), "count")
    out["engine.provenance.profit_id.calls"] = (
        _per(counts.get("engine.provenance.profit_id", 0), greedy_runs), "count")
    out["engine.provenance.profits_for.calls"] = (
        _per(trace.calls("engine.provenance.profits_for"), greedy_runs), "count")
    for prefix in SHARES:
        out[f"{prefix}_share"] = (_per(_self_ms(trace, prefix), all_self), "share")
    out["storage.fsync.calls"] = (counts.get("storage.fsync", 0), "count")
    out["storage.bytes_written"] = (counts.get("storage.bytes_written", 0), "bytes")
    out["storage.compactions"] = (service.get("compactions_total", 0), "count")
    out["storage.replayed_records"] = (service.get("replayed_records_total", 0), "count")
    out["obs.trace_overhead"] = (
        traced.metrics["latency_ms.p50"] / plain.metrics["latency_ms.p50"] - 1.0, "ratio")
    out["trace.unattributed_share"] = (trace.unattributed_share(), "share")
    return out


def splits(trace: Trace) -> Dict[str, float]:
    """The layer split each workload was chosen for (self ms)."""
    waits = sum(end - start for start, end in trace.intervals.get("service.batch.wait", []))
    return {
        "solve_job_ms": trace.total_ms("service.job.solve"),
        "greedy+provenance_ms": (_self_ms(trace, "core.greedy")
                                 + _self_ms(trace, "engine.provenance")),
        "service_ms": _self_ms(trace, "service") + waits * 1000.0,
        "core_ms": _self_ms(trace, "core"),
        "delta+apply+storage_ms": (_self_ms(trace, "engine.delta")
                                   + _self_ms(trace, "session.apply")
                                   + _self_ms(trace, "storage")),
        **{f"layer.{layer}_ms": _self_ms(trace, layer) for layer in LAYERS},
    }


def report(plain, traced, prefix: Path) -> Dict[str, Tuple[float, str]]:
    trace = load(prefix)
    all_self = sum(trace.self_ms(name) for name in trace.spans) or 1.0
    print(f"{'span':<36} {'calls':>8} {'self ms':>11} {'mean ms':>10} {'share':>7}")
    for name in sorted(trace.spans, key=trace.self_ms, reverse=True):
        print(f"{name:<36} {trace.calls(name):>8} {trace.self_ms(name):>11.1f} "
              f"{trace.mean_self_ms(name):>10.3f} {trace.self_ms(name) / all_self:>7.3f}")
    for name, value in sorted(trace.counts.items()):
        print(f"count {name:<30} {value}")
    for name, value in splits(trace).items():
        print(f"split {name:<30} {value:.1f}")
    for name, value in traced.info.items():
        print(f"traced {name}: {value}")
    return metrics(plain, traced, trace)
