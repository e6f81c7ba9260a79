"""Run ``repro serve`` with benchmark-side spans around each layer's calls.

Usage::

    python perfbench/traced_server.py DUMP_PREFIX serve --port N [serve flags]

The bootstrap wraps the public functions each layer calls into -- patching
the attribute the caller resolves at call time, so nothing under ``src/``
changes -- and then enters the normal ``repro serve`` entry point.  Spans
``[name, start, end, parent]`` are kept in memory, one list per thread, with
the parent taken from the thread's stack of open spans.  ``SIGUSR1`` writes
everything recorded so far to ``DUMP_PREFIX.<pid>.<n>.json``; each dump is
cumulative, so the reader only needs the last one of each process.

Calls too frequent to time (``ProvenanceIndex.profit_id`` runs once per
candidate per greedy round) are counted instead.  Event-loop coroutines do
not nest on a thread stack, so the request span (``AdpService._respond``)
and the micro-batcher wait are kept as plain intervals.
"""

from __future__ import annotations

import importlib
import json
import os
import signal
import sys
import threading
import time
from types import SimpleNamespace
from typing import Any, Callable, Dict, List

perf_counter = time.perf_counter


class _ThreadLog:
    __slots__ = ("name", "spans", "stack", "counts")

    def __init__(self, name: str) -> None:
        self.name = name
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = {}


class Recorder:
    """Per-thread span and count logs plus event-loop intervals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadLog] = []
        #: ``[name, start, end]`` records made on the event-loop thread.
        self.intervals: List[list] = []
        #: MicroBatcher submit times, keyed by the queued item's id.
        self.submitted: Dict[int, float] = {}
        self.service: Any = None
        self.dumps = 0

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog(threading.current_thread().name)
            with self._lock:
                self._threads.append(log)
        return log

    def timed(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            log = self._log()
            stack = log.stack
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(log.spans))
            log.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return wrapper

    def measured(self, name: str, fn: Callable, size: Callable) -> Callable:
        """Add ``size(result)`` of every call under ``name``."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.add(name, size(result))
            return result

        return wrapper

    def add(self, name: str, amount: int = 1) -> None:
        counts = self._log().counts
        counts[name] = counts.get(name, 0) + amount

    def dump(self, prefix: str) -> None:
        with self._lock:
            threads = list(self._threads)
        payload = {
            "pid": os.getpid(),
            "threads": [
                {
                    "name": log.name,
                    # Spans still open have end 0.0; the reader skips them
                    # (they stay in the list so parent indices hold).
                    "spans": [list(s) for s in list(log.spans)],
                    "counts": dict(log.counts),
                }
                for log in threads
            ],
            "intervals": [list(i) for i in list(self.intervals)],
            "service": self._service_counters(),
        }
        path = f"{prefix}.{os.getpid()}.{self.dumps}.json"
        self.dumps += 1
        with open(path + ".tmp", "w") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)

    def _service_counters(self) -> Dict[str, int]:
        service = self.service
        if service is None:
            return {}
        counters = dict(service.metrics.snapshot())
        if service.store is not None:
            store = service.store
            counters.update({
                "compactions_total": store.compactions_total,
                "replayed_records_total": store.replayed_records_total,
                "records_appended_total": store.records_appended_total,
                "snapshots_written": store.snapshots_written,
            })
        return counters


def install(recorder: Recorder) -> None:
    """Wrap every layer's entry points; spans are named ``<module>.<operation>``."""
    import repro.core.adp as adp
    import repro.core.greedy as greedy
    import repro.service.batch as batch
    import repro.service.http as http
    import repro.session as session
    import repro.storage.log as log
    import repro.storage.snapshot as snapshot
    import repro.storage.store as store
    from repro.engine.cache import EvaluationCache
    from repro.engine.provenance import ProvenanceIndex
    from repro.service.registry import SessionRegistry

    # ``repro.engine`` re-exports a function named ``evaluate``, which
    # shadows the submodule attribute; take the module itself.
    evaluate = importlib.import_module("repro.engine.evaluate")

    def patch(owner: Any, attribute: str, name: str) -> None:
        setattr(owner, attribute, recorder.timed(name, getattr(owner, attribute)))

    # service: HTTP body and payload (de)serialization, registry, jobs.
    patch(http, "solution_payload", "service.serialize.payload")
    patch(http, "dumps_canonical", "service.serialize.payload")
    patch(http, "refs_from_json", "service.serialize.decode")
    patch(http, "Relation", "service.serialize.decode")
    http.json = SimpleNamespace(  # type: ignore[attr-defined]
        loads=recorder.timed("service.serialize.decode", json.loads),
        dumps=json.dumps,
        JSONDecodeError=json.JSONDecodeError,
    )
    patch(SessionRegistry, "register", "service.registry.register")
    patch(SessionRegistry, "apply_insertions", "service.registry.write")
    patch(SessionRegistry, "apply_deletions", "service.registry.write")
    patch(http.AdpService, "_what_if_job", "service.job.what_if")
    timed_job = recorder.timed("service.job.solve", http.AdpService._solve_batch_job)

    def solve_job(self, entry, items, *args):
        # Every request of a batch waits for the whole job: weight the job
        # time by its size, so the client side can subtract it per request.
        start = perf_counter()
        try:
            return timed_job(self, entry, items, *args)
        finally:
            elapsed_us = int((perf_counter() - start) * 1e6)
            recorder.add("service.job.solve.request_us", elapsed_us * len(items))
            recorder.add("service.job.solve.requests", len(items))

    http.AdpService._solve_batch_job = solve_job

    original_init = http.AdpService.__init__

    def service_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        recorder.service = self

    http.AdpService.__init__ = service_init

    original_respond = http.AdpService._respond

    async def respond(self, method, path, body):
        start = perf_counter()
        try:
            return await original_respond(self, method, path, body)
        finally:
            if method == "POST":
                recorder.intervals.append(
                    ["service.http.request", start, perf_counter()]
                )

    http.AdpService._respond = respond

    original_submit = batch.MicroBatcher.submit
    original_dispatch = batch.MicroBatcher._dispatch_now

    async def submit(self, key, item):
        recorder.submitted[id(item)] = perf_counter()
        return await original_submit(self, key, item)

    async def dispatch_now(self, key, items, futures):
        now = perf_counter()
        for item in items:
            queued = recorder.submitted.pop(id(item), None)
            if queued is not None:
                recorder.intervals.append(["service.batch.wait", queued, now])
        return await original_dispatch(self, key, items, futures)

    batch.MicroBatcher.submit = submit
    batch.MicroBatcher._dispatch_now = dispatch_now

    # session
    patch(session.Session, "prepare", "session.prepare")
    patch(session.Session, "solve_many", "session.solve_many")
    patch(session.Session, "apply_insertions", "session.apply")
    patch(session.Session, "apply_deletions", "session.apply")
    patch(session.Session, "what_if", "session.what_if")

    # engine
    patch(evaluate.EngineContext, "evaluate", "engine.evaluate")
    patch(evaluate.EngineContext, "interned", "engine.intern")
    patch(evaluate, "evaluate_columnar", "engine.join")
    patch(session, "delta_insert_result", "engine.delta.insert")
    patch(session, "delta_filter_result", "engine.delta.filter")
    patch(session, "delta_counts", "engine.delta.counts")
    patch(ProvenanceIndex, "__init__", "engine.provenance.index")
    patch(ProvenanceIndex, "gains_for", "engine.provenance.gains_for")
    patch(ProvenanceIndex, "profits_for", "engine.provenance.profits_for")
    patch(ProvenanceIndex, "remove_id", "engine.provenance.remove")
    ProvenanceIndex.profit_id = recorder.counted(
        "engine.provenance.profit_id", ProvenanceIndex.profit_id
    )
    original_lookup = EvaluationCache.lookup

    def lookup(self, *args, **kwargs):
        found = original_lookup(self, *args, **kwargs)
        recorder.add("engine.cache.hits" if found is not None
                     else "engine.cache.misses")
        return found

    EvaluationCache.lookup = lookup

    # core
    patch(greedy, "greedy_curve", "core.greedy.curve")
    patch(adp, "singleton_curve", "core.singleton.curve")
    patch(adp.ADPSolver, "_curve", "core.adp.curve")
    patch(adp.ADPSolver, "solve_in_context", "core.adp.solve")

    # storage
    patch(log.MutationLog, "append", "storage.log.append")
    patch(store, "write_snapshot", "storage.snapshot.write")
    patch(store.DatabaseStore, "load", "storage.load")
    os.fsync = recorder.counted("storage.fsync", os.fsync)
    frame = log._RECORD_FRAME.size
    log._encode_record = recorder.measured(
        "storage.bytes_written", log._encode_record, lambda b: len(b) + frame
    )
    snapshot._assemble = recorder.measured(
        "storage.bytes_written", snapshot._assemble, len
    )


def main(argv: List[str]) -> int:
    prefix, serve_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    signal.signal(signal.SIGUSR1, lambda _signum, _frame: recorder.dump(prefix))
    from repro.cli import main as repro_main

    return repro_main(serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
