"""The asyncio HTTP/JSON front end (stdlib only).

One :class:`AdpService` owns the registry, the micro-batcher, admission
control, metrics and a solver thread pool.  The event loop does I/O and
coordination only; every solver call (solve batches, what-ifs, mutations)
runs on the thread pool -- the session read paths are thread-safe by the
contract in :mod:`repro.session`, and mutations serialize through the
registry entry's write lock.

Endpoints (all bodies JSON; see ``docs/ARCHITECTURE.md`` for the schema):

=======================  ====================================================
``GET  /healthz``        liveness + registry/queue summary
``GET  /metrics``        Prometheus text exposition
``GET  /v1/databases``   list registered databases (name, version, sizes)
``POST /v1/databases``   register ``{name, schema, rows[, replace]}``
``POST /v1/prepare``     classify ``{database, query}``
``POST /v1/solve``       ``{database, query, k|ratio[, method, counting_only,
                         deadline_ms, batch]}`` -- coalesced into
                         ``solve_many`` batches unless ``batch`` is false
``POST /v1/what_if``     ``{database, query, refs[, include_after]}``
``POST /v1/apply_deletions``  ``{database, refs}`` -- bumps the version
``POST /v1/apply_insertions``  ``{database, refs}`` -- bumps the version
``POST /v1/explain``     ``{database, query[, analyze]}`` -- the structured
                         plan + estimate-vs-actual ledger (same payload as
                         ``repro explain --json``)
``GET  /v1/debug/slow``  ring buffer of over-threshold requests
``GET  /v1/debug/stats`` ring buffer of recent plan+stats records
=======================  ====================================================

A solve request may pass ``"stats": true`` to get a ``"stats"`` block
(operator records + worst misestimate) on its response; such requests
bypass the micro-batcher so their records are not mixed with batch-mates'.

Every request is stamped with a ``trace_id`` (echoed in JSON payloads and
the ``X-Trace-Id`` header).  With ``ServiceConfig.trace`` on, solver jobs
run under a :class:`~repro.obs.trace.Tracer`: span durations feed the
per-stage latency histograms at ``/metrics`` and requests slower than
``slow_ms`` land in the slow-query log with their full span tree.

Status codes: 400 malformed/invalid request, 404 unknown database or
route, 409 name conflict, 413 oversized body, 429 overloaded (with
``Retry-After``), 500 internal, 503 database evicted mid-request or
durable storage degraded (write paths only, with ``Retry-After``), 504
deadline expired.

With ``ServiceConfig.data_dir`` set the registry gets a
:class:`~repro.storage.DatabaseStore`: registrations snapshot, mutations
write through to the log before the acknowledgement, and a restarted
process lazily rehydrates databases on first touch (see
``docs/DURABILITY.md``).
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

from repro.core.adp import ADPSolver, ratio_target

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.core.solution import ADPSolution
    from repro.data.relation import TupleRef
    from repro.session import PreparedQuery, Session
from repro.data.database import Database
from repro.data.relation import Relation
from repro.service.admission import (
    AdmissionController,
    Deadline,
    DeadlineExpired,
    Overloaded,
)
from repro.obs.render import aggregate_stage_ms
from repro.obs.slowlog import SlowQueryLog
from repro.obs.stats import (
    StatsCollector,
    StatsLog,
    StatsRecord,
    use_stats,
    worst_misestimate,
)
from repro.obs.trace import Tracer, new_trace_id, use_tracer
from repro.service.batch import MicroBatcher
from repro.service.metrics import ServiceMetrics
from repro.service.registry import (
    DuplicateDatabaseError,
    RegisteredDatabase,
    SessionRegistry,
)
from repro.storage import (
    DEFAULT_COMPACT_AFTER,
    DatabaseStore,
    StorageUnavailableError,
)
from repro.service.serialize import (
    database_payload,
    dumps_canonical,
    elapsed_ms,
    error_payload,
    prepare_payload,
    refs_from_json,
    solution_payload,
    what_if_payload,
)

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    409: "Conflict", 413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

SOLVE_METHODS = ("auto", "greedy", "drastic")

#: The only endpoint labels metrics may carry (see _respond).
KNOWN_ENDPOINTS = frozenset({
    "/healthz", "/metrics", "/v1/databases", "/v1/prepare", "/v1/solve",
    "/v1/what_if", "/v1/apply_deletions", "/v1/apply_insertions",
    "/v1/explain", "/v1/debug/slow", "/v1/debug/stats",
})

#: The trace id of the request being served (set per request in _respond;
#: handlers pass it explicitly into thread-pool jobs, which do not inherit
#: the event loop's context).
_TRACE_ID: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "repro_service_trace_id", default=None
)


@dataclass
class ServiceConfig:
    """Tuning knobs of one :class:`AdpService` (CLI flags mirror these)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``AdpService.port``).
    port: int = 8080
    #: Backend/workers for every registry session.
    backend: str = "auto"
    workers: int = 1
    #: LRU bound on resident databases.
    max_databases: int = 8
    #: Solver thread pool size (CPU-bound Python: more threads buy
    #: concurrency for lock draining and batching, not parallel speedup).
    executor_threads: int = 4
    #: Micro-batching window: max coalesced requests per dispatch and how
    #: long the first request of a window waits for company.
    max_batch: int = 16
    linger_ms: float = 2.0
    #: Admission bound on pending solve-class requests; excess gets 429.
    max_pending: int = 64
    retry_after_s: float = 1.0
    #: Default per-request time budget (requests may override; 0 = none).
    default_deadline_ms: float = 30_000.0
    #: Reject request bodies larger than this (bulk row uploads included).
    max_body_bytes: int = 64 * 1024 * 1024
    #: Run solver jobs under a tracer: span durations feed the per-stage
    #: histograms at /metrics, and slow requests keep their span tree.
    trace: bool = False
    #: Requests slower than this land in the slow-query log.
    slow_ms: float = 250.0
    slow_log_capacity: int = 32
    #: Ring-buffer bound on recent plan+stats records (``/v1/debug/stats``).
    stats_log_capacity: int = 64
    #: Emit one ``[access]`` log line per finished request.
    log_requests: bool = False
    #: Persist databases under this directory (None = in-memory only).
    data_dir: Optional[str] = None
    #: Mutation-log records absorbed before a compaction snapshot.
    compact_after: int = DEFAULT_COMPACT_AFTER


class ApiError(Exception):
    """An error with a definite HTTP status (raised by handlers)."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


class _SolveItem:
    """One queued solve request (what travels through the batcher)."""

    __slots__ = ("query", "k", "ratio", "method", "counting_only", "deadline",
                 "collect_stats")

    def __init__(self, query: str, k: Optional[int], ratio: Optional[float],
                 method: str, counting_only: bool, deadline: Deadline,
                 collect_stats: bool = False) -> None:
        self.query = query
        self.k = k
        self.ratio = ratio
        self.method = method
        self.counting_only = counting_only
        self.deadline = deadline
        self.collect_stats = collect_stats


class _Failure:
    """A per-item failure outcome (kept distinct from payload dicts)."""

    __slots__ = ("status", "message")

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        self.message = message


class AdpService:
    """The service: registry + batcher + admission + metrics + HTTP."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.store: Optional[DatabaseStore] = (
            DatabaseStore(
                self.config.data_dir, compact_after=self.config.compact_after
            )
            if self.config.data_dir
            else None
        )
        self.registry = SessionRegistry(
            self.config.max_databases,
            backend=self.config.backend,
            workers=self.config.workers,
            store=self.store,
        )
        self.metrics = ServiceMetrics()
        self.admission = AdmissionController(
            self.config.max_pending, self.config.retry_after_s
        )
        self.executor = ThreadPoolExecutor(
            max_workers=self.config.executor_threads,
            thread_name_prefix="repro-solve",
        )
        self.batcher = MicroBatcher(
            self._dispatch_batch,
            max_batch=self.config.max_batch,
            linger_ms=self.config.linger_ms,
            on_dispatch=self.metrics.batch_dispatched,
        )
        self.slow_log = SlowQueryLog(
            capacity=self.config.slow_log_capacity,
            threshold_ms=self.config.slow_ms,
        )
        self.stats_log = StatsLog(capacity=self.config.stats_log_capacity)
        #: Per-database operator gauges (last observed instrumented solve);
        #: pruned to registry-resident names at /metrics scrape time so the
        #: label cardinality is bounded by the registry LRU capacity.
        self._db_operator_gauges: Dict[str, Dict[str, float]] = {}
        self._db_gauges_lock = threading.Lock()
        self.started_at = time.time()
        self._server: Optional[asyncio.AbstractServer] = None
        self._clients: "set[asyncio.Task]" = set()
        self.port: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind and start accepting connections (sets :attr:`port`)."""
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, flush open batch windows, close every session."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._clients):
            task.cancel()
        if self._clients:
            await asyncio.gather(*self._clients, return_exceptions=True)
        await self.batcher.flush_all()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.registry.close)
        if self.store is not None:
            self.store.close()
        self.executor.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._clients.add(task)
            task.add_done_callback(self._clients.discard)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ApiError as exc:
                    body = dumps_canonical(error_payload(exc.message))
                    writer.write(
                        (
                            f"HTTP/1.1 {exc.status} "
                            f"{_REASONS.get(exc.status, 'Error')}\r\n"
                            "Content-Type: application/json\r\n"
                            f"Content-Length: {len(body)}\r\n"
                            "Connection: close\r\n\r\n"
                        ).encode("ascii") + body
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                status, payload, extra = await self._respond(method, path, body)
                content = (
                    payload if isinstance(payload, bytes)
                    else dumps_canonical(payload)
                )
                content_type = extra.pop("content-type", "application/json")
                head = [
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                    f"Content-Type: {content_type}",
                    f"Content-Length: {len(content)}",
                    f"Connection: {'keep-alive' if keep_alive else 'close'}",
                ]
                head.extend(f"{name}: {value}" for name, value in extra.items())
                writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii"))
                writer.write(content)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:  # service shutdown with an open client
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            return None
        try:
            method, path, _version = line.decode("ascii").split(None, 2)
        except (UnicodeDecodeError, ValueError):
            raise ApiError(400, "malformed request line")
        headers: Dict[str, str] = {}
        for _ in range(100):
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:  # pragma: no cover - header bomb
            raise ApiError(400, "too many headers")
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise ApiError(400, "malformed Content-Length header")
        if length < 0:
            raise ApiError(400, "malformed Content-Length header")
        if length > self.config.max_body_bytes:
            raise ApiError(413, f"body of {length} bytes exceeds the limit")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path.split("?", 1)[0], headers, body

    async def _respond(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, object, Dict[str, str]]:
        start = time.perf_counter()
        trace_id = new_trace_id()
        token = _TRACE_ID.set(trace_id)
        self.metrics.request_started()
        status = 500
        payload: object = None
        extra: Dict[str, str] = {}
        try:
            try:
                status, payload, extra = await self._route(method, path, body)
            except Overloaded as exc:
                self.metrics.rejected()
                status = 429
                payload = error_payload(str(exc), retry_after_s=exc.retry_after_s)
                extra = {"Retry-After": f"{exc.retry_after_s:g}"}
            except DeadlineExpired as exc:
                self.metrics.deadline_missed()
                status, payload, extra = 504, error_payload(str(exc)), {}
            except StorageUnavailableError as exc:
                # The data dir is erroring: writes cannot be made durable,
                # so they fail fast while the read path keeps serving.
                status = 503
                retry_after = self.config.retry_after_s
                payload = error_payload(
                    f"durable storage unavailable: {exc}",
                    retry_after_s=retry_after,
                )
                extra = {"Retry-After": f"{retry_after:g}"}
            except ApiError as exc:
                status = exc.status
                payload, extra = error_payload(exc.message), dict(exc.headers)
            except KeyError as exc:
                # Registry misses are mapped to 404 by _entry(); a KeyError
                # that reaches this point is a bad request (e.g. unknown
                # relation).
                status = 400
                payload = error_payload(str(exc.args[0] if exc.args else exc))
                extra = {}
            except ValueError as exc:
                status, payload, extra = 400, error_payload(str(exc)), {}
            except Exception as exc:  # pragma: no cover - last-resort 500
                status = 500
                payload, extra = error_payload(f"internal error: {exc!r}"), {}
            if isinstance(payload, dict):
                payload["trace_id"] = trace_id
            extra.setdefault("X-Trace-Id", trace_id)
            return status, payload, extra
        finally:
            _TRACE_ID.reset(token)
            # Unknown paths share one label: per-path labels for arbitrary
            # client-chosen strings would grow the metrics maps unboundedly.
            endpoint = path if path in KNOWN_ENDPOINTS else "other"
            elapsed = elapsed_ms(start, time.perf_counter())
            self.metrics.request_finished(endpoint, status, elapsed)
            if self.config.log_requests:
                database = version = "-"
                if isinstance(payload, dict):
                    database = str(payload.get("database", "-"))
                    version = str(payload.get("version", "-"))
                print(
                    f"[access] trace={trace_id} method={method} route={path} "
                    f"db={database} version={version} status={status} "
                    f"elapsed_ms={elapsed:.3f}",
                    flush=True,
                )

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, object, Dict[str, str]]:
        if path == "/healthz" and method == "GET":
            return 200, self._healthz(), {}
        if path == "/metrics" and method == "GET":
            gauges = {
                "pending_requests": self.admission.pending,
                "databases_resident": len(self.registry),
                "databases_capacity": self.registry.capacity,
                "batcher_queue_depth": self.batcher.depth,
            }
            counters = {
                "registry_evictions_total": self.registry.evictions_total,
                "registry_rehydrations_total": self.registry.rehydrations_total,
            }
            if self.store is not None:
                counters.update({
                    "storage_snapshots_written_total": self.store.snapshots_written,
                    "storage_compactions_total": self.store.compactions_total,
                    "storage_records_appended_total": self.store.records_appended_total,
                    "storage_replayed_records_total": self.store.replayed_records_total,
                })
                gauges["storage_degraded"] = 1 if self.store.degraded else 0
            labeled = self._labeled_gauges()
            text = self.metrics.render(gauges, counters, labeled).encode("utf-8")
            return 200, text, {"content-type": "text/plain; version=0.0.4"}
        if path == "/v1/databases" and method == "GET":
            return 200, self._list_databases(), {}
        if path == "/v1/debug/slow" and method == "GET":
            return 200, self.slow_log.snapshot(), {}
        if path == "/v1/debug/stats" and method == "GET":
            return 200, self.stats_log.snapshot(), {}
        post_routes = {
            "/v1/databases": self._handle_register,
            "/v1/prepare": self._handle_prepare,
            "/v1/solve": self._handle_solve,
            "/v1/what_if": self._handle_what_if,
            "/v1/apply_deletions": self._handle_apply_deletions,
            "/v1/apply_insertions": self._handle_apply_insertions,
            "/v1/explain": self._handle_explain,
        }
        handler = post_routes.get(path)
        if handler is None:
            raise ApiError(404, f"no such endpoint: {method} {path}")
        if method != "POST":
            raise ApiError(405, f"{path} only accepts POST")
        try:
            parsed = json.loads(body.decode("utf-8")) if body else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ApiError(400, f"request body is not valid JSON: {exc}")
        if not isinstance(parsed, dict):
            raise ApiError(400, "request body must be a JSON object")
        return await handler(parsed)

    # ------------------------------------------------------------------ #
    # Metadata endpoints
    # ------------------------------------------------------------------ #
    def _healthz(self) -> dict:
        payload = {
            "status": "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "databases": len(self.registry),
            "pending_requests": self.admission.pending,
            "metrics": self.metrics.snapshot(),
        }
        if self.store is not None:
            # Recovery state: persisted names, replay counters, degradation.
            storage = self.store.stats()
            storage["rehydrations_total"] = self.registry.rehydrations_total
            payload["storage"] = storage
            if self.store.degraded:
                payload["status"] = "degraded"
        return payload

    def _list_databases(self) -> dict:
        return {
            "databases": [
                database_payload(
                    entry.name, entry.version, entry.database,
                    backend=entry.session.backend, workers=entry.session.workers,
                )
                for entry in self.registry.entries()
            ]
        }

    async def _handle_register(self, body: dict) -> Tuple[int, dict, dict]:
        name = _require_str(body, "name")
        schema = body.get("schema")
        if not isinstance(schema, dict) or not schema:
            raise ApiError(400, "schema must be a non-empty object "
                                "{relation: [attributes...]}")
        rows = body.get("rows") or {}
        if not isinstance(rows, dict):
            raise ApiError(400, "rows must be an object {relation: [[...], ...]}")
        for relation_name, attributes in schema.items():
            if not isinstance(attributes, list):
                raise ApiError(400, f"schema[{relation_name}] must be a list")

        def job() -> "Tuple[RegisteredDatabase, Database]":
            # Row materialization and (on LRU overflow) the evicted entry's
            # Session.close() -- which drains that entry's in-flight solves
            # -- must not run on the event loop.
            relations = [
                Relation(rel, attrs, [tuple(r) for r in rows.get(rel, [])])
                for rel, attrs in schema.items()
            ]
            database = Database(relations)
            entry = self.registry.register(
                name, database, replace=bool(body.get("replace", False))
            )
            return entry, database

        loop = asyncio.get_running_loop()
        try:
            entry, database = await loop.run_in_executor(self.executor, job)
        except DuplicateDatabaseError as exc:
            raise ApiError(409, str(exc))
        # Any other ValueError (bad row arity, invalid name) is a 400 via
        # the generic handler in _respond.
        return 200, database_payload(
            entry.name, entry.version, database,
            backend=entry.session.backend, workers=entry.session.workers,
        ), {}

    def _entry(self, name: str) -> RegisteredDatabase:
        """The registry entry for ``name``, or a definite 404."""
        try:
            return self.registry.get(name)
        except KeyError as exc:
            raise ApiError(404, str(exc.args[0]))

    async def _handle_prepare(self, body: dict) -> Tuple[int, dict, dict]:
        entry = self._entry(_require_str(body, "database"))
        query = _require_str(body, "query")

        def job() -> dict:
            with entry.lock.read():
                if entry.session.closed:
                    raise ApiError(
                        503, f"database {entry.name!r} has been evicted"
                    )
                return entry.session.prepare(query), entry.version

        loop = asyncio.get_running_loop()
        prepared, version = await loop.run_in_executor(self.executor, job)
        payload = prepare_payload(prepared)
        payload.update({"database": entry.name, "version": version})
        return 200, payload, {}

    # ------------------------------------------------------------------ #
    # Solve path (admission -> batcher -> thread pool -> solve_many)
    # ------------------------------------------------------------------ #
    async def _handle_solve(self, body: dict) -> Tuple[int, dict, dict]:
        start = time.perf_counter()
        entry = self._entry(_require_str(body, "database"))
        query = _require_str(body, "query")
        method = body.get("method", "greedy")
        if method not in SOLVE_METHODS:
            raise ApiError(400, f"method must be one of {SOLVE_METHODS}")
        if method == "auto":
            method = "greedy"
        counting_only = bool(body.get("counting_only", False))
        k = body.get("k")
        ratio = body.get("ratio")
        if (k is None) == (ratio is None):
            raise ApiError(400, "pass exactly one of k or ratio")
        if k is not None and (not isinstance(k, int) or isinstance(k, bool)):
            raise ApiError(400, f"k must be an integer, got {k!r}")
        if ratio is not None and (
            not isinstance(ratio, (int, float)) or isinstance(ratio, bool)
        ):
            raise ApiError(400, f"ratio must be a number, got {ratio!r}")
        deadline = self._deadline_of(body)
        deadline.check()  # an already-spent budget never enters the queue
        collect_stats = bool(body.get("stats", False))
        item = _SolveItem(
            query, k, ratio, method, counting_only, deadline, collect_stats
        )
        # Stats-requesting solves bypass the batcher: a batch shares one
        # collector, so its records could not be attributed to one request.
        use_batch = (
            bool(body.get("batch", True))
            and self.batcher.enabled
            and not collect_stats
        )
        with self.admission:
            if use_batch:
                key = (entry.name, entry.version, method, counting_only)
                outcome = await self.batcher.submit(key, item)
            else:
                self.metrics.solve_dispatched()
                loop = asyncio.get_running_loop()
                outcome = (
                    await loop.run_in_executor(
                        self.executor, self._solve_batch_job, entry, [item],
                        _TRACE_ID.get(),
                    )
                )[0]
        if isinstance(outcome, _Failure):
            if outcome.status == 504:
                self.metrics.deadline_missed()
            raise ApiError(outcome.status, outcome.message)
        outcome["elapsed_ms"] = elapsed_ms(start, time.perf_counter())
        return 200, outcome, {}

    def _deadline_of(self, body: dict) -> Deadline:
        raw = body.get("deadline_ms", self.config.default_deadline_ms)
        if raw is None or (isinstance(raw, (int, float)) and raw <= 0):
            return Deadline(None)
        if not isinstance(raw, (int, float)):
            raise ApiError(400, f"deadline_ms must be a number, got {raw!r}")
        return Deadline(float(raw))

    async def _dispatch_batch(
        self, key: Hashable, items: List[_SolveItem]
    ) -> List[object]:
        name = key[0]  # type: ignore[index]  # batch keys are (name, ...) tuples
        try:
            entry = self.registry.get(name)
        except KeyError:
            return [
                _Failure(503, f"database {name!r} was evicted while queued")
            ] * len(items)
        loop = asyncio.get_running_loop()
        outcomes = await loop.run_in_executor(
            self.executor, self._solve_batch_job, entry, items
        )
        if len(items) > 1:
            for outcome in outcomes:
                if isinstance(outcome, dict):
                    outcome["batched"] = True
        return outcomes

    def _solve_batch_job(
        self,
        entry: RegisteredDatabase,
        items: List[_SolveItem],
        trace_id: Optional[str] = None,
    ) -> List[object]:
        """Thread-pool body: validate, group, ``solve_many``, serialize.

        With tracing on, the whole batch runs under one tracer (batches
        coalesce several requests, so the batch keeps its own trace id
        unless a singleton dispatch hands down the request's).  Span
        durations feed the stage histograms; over-threshold batches land
        in the slow-query log with their span tree.

        Operator statistics are collected whenever tracing is on (feeding
        the per-database gauges and the slow log's worst-misestimate field)
        or a request asked for them with ``"stats": true`` (always a
        singleton dispatch -- see ``_handle_solve``).
        """
        want_stats = self.config.trace or any(
            item.collect_stats for item in items
        )
        if not want_stats:
            return self._solve_batch_inner(entry, items)
        collector = StatsCollector()
        plans: List[str] = []
        start = time.perf_counter()
        if self.config.trace:
            tracer = Tracer(trace_id)
            with use_tracer(tracer), use_stats(collector):
                with tracer.span("service.solve_batch", requests=len(items)):
                    outcomes = self._solve_batch_inner(entry, items, plans)
        else:
            tracer = None
            with use_stats(collector):
                outcomes = self._solve_batch_inner(entry, items, plans)
        records = collector.export()
        worst = worst_misestimate(records)
        if tracer is not None:
            self._observe_trace(
                tracer, "/v1/solve", entry, plans,
                elapsed_ms(start, time.perf_counter()), worst,
            )
        self._observe_stats(entry.name, records)
        for item, outcome in zip(items, outcomes):
            if item.collect_stats and isinstance(outcome, dict):
                outcome["stats"] = {
                    "operators": records,
                    "worst_misestimate": worst,
                }
                self.stats_log.record({
                    "route": "/v1/solve",
                    "database": entry.name,
                    "version": entry.version,
                    "plans": sorted(set(plans)),
                    "worst_misestimate": worst,
                    "operators": records,
                    "recorded_at": round(time.time(), 3),
                })
        return outcomes

    def _observe_stats(
        self, database: str, records: "List[StatsRecord]"
    ) -> None:
        """Fold one solve's operator records into the per-database gauges.

        Gauges report the *last observed* instrumented solve.  The map is
        keyed by database name and pruned to registry-resident names at
        scrape time (:meth:`_labeled_gauges`), so its label cardinality is
        bounded by the registry LRU capacity and evicted databases drop
        out of ``/metrics``.
        """
        joins = [r for r in records if r.get("op") == "join.atom"]
        if not joins:
            return
        heavy = sum(
            1 for r in joins
            if isinstance(r.get("keys"), dict) and r["keys"].get("heavy_hitter")  # type: ignore[union-attr]
        )
        gauges = {
            "operator_join_steps": float(len(joins)),
            "operator_witnesses": float(
                sum(int(r.get("witnesses", 0)) for r in joins)  # type: ignore[arg-type]
            ),
            "operator_mispredicted_steps": float(
                sum(1 for r in joins if r.get("misestimated"))
            ),
            "operator_heavy_hitter_steps": float(heavy),
            "operator_max_expansion": max(
                float(r.get("expansion", 0.0)) for r in joins  # type: ignore[arg-type]
            ),
        }
        with self._db_gauges_lock:
            self._db_operator_gauges[database] = gauges

    def _labeled_gauges(self) -> Dict[str, Dict[str, float]]:
        """Per-database gauges, pruned to resident names (bounded labels)."""
        resident = {entry.name for entry in self.registry.entries()}
        with self._db_gauges_lock:
            for name in [
                n for n in self._db_operator_gauges if n not in resident
            ]:
                del self._db_operator_gauges[name]
            per_db = {
                name: dict(values)
                for name, values in self._db_operator_gauges.items()
            }
        labeled: Dict[str, Dict[str, float]] = {}
        for name, values in per_db.items():
            for metric, value in values.items():
                labeled.setdefault(metric, {})[name] = value
        return labeled

    def _observe_trace(
        self,
        tracer: Tracer,
        route: str,
        entry: RegisteredDatabase,
        plans: List[str],
        elapsed: float,
        worst: Optional[StatsRecord] = None,
    ) -> None:
        """Feed one traced job into the stage histograms and the slow log.

        ``worst`` is the job's worst-misestimated operator record (when
        stats ran alongside the trace): a slow query whose estimate was
        badly off is usually slow *because* of it, so the slow log keeps
        the pair together.
        """
        spans = tracer.export()
        for stage, total in aggregate_stage_ms(spans).items():
            self.metrics.stage_observed(stage, total)
        if self.slow_log.should_record(elapsed):
            self.metrics.slow_request()
            self.slow_log.record({
                "trace_id": tracer.trace_id,
                "route": route,
                "database": entry.name,
                "version": entry.version,
                "plans": sorted(set(plans)),
                "worst_misestimate": worst,
                "elapsed_ms": round(elapsed, 3),
                "recorded_at": round(time.time(), 3),
                "spans": spans,
            })

    def _solve_batch_inner(
        self,
        entry: RegisteredDatabase,
        items: List[_SolveItem],
        plans_out: Optional[List[str]] = None,
    ) -> List[object]:
        """The untraced batch body: validate, group, ``solve_many``, serialize.

        Per-item failures (bad query, infeasible target, expired deadline)
        become :class:`_Failure` outcomes -- one bad request must never
        poison its batch-mates.  Runs under the entry's read lock: any
        number of these jobs share the session concurrently, while
        ``apply_deletions`` drains them before mutating.
        """
        with entry.lock.read():
            session = entry.session
            if session.closed:
                return [
                    _Failure(503, f"database {entry.name!r} has been evicted")
                ] * len(items)
            version = entry.version
            outcomes: List[object] = [None] * len(items)
            requests: List[tuple] = []
            positions: List[int] = []
            prepared_of: Dict[int, object] = {}
            for i, item in enumerate(items):
                if item.deadline.expired:
                    outcomes[i] = _Failure(
                        504,
                        f"deadline of {item.deadline.budget_ms:g} ms expired "
                        "while queued",
                    )
                    continue
                try:
                    prepared = session.prepare(item.query)
                    if plans_out is not None:
                        plans_out.append(prepared.plan_fingerprint)
                    total = session.output_size(prepared)
                    if total == 0:
                        outcomes[i] = self._success(
                            session, prepared, 0, None, entry.name, version
                        )
                        continue
                    k = (
                        item.k if item.k is not None
                        else ratio_target(total, float(item.ratio))
                    )
                    if not 1 <= k <= total:
                        raise ValueError(
                            f"k={k} outside 1 <= k <= |Q(D)|={total}"
                        )
                except (ValueError, KeyError) as exc:
                    outcomes[i] = _Failure(400, str(exc))
                    continue
                prepared_of[i] = prepared
                requests.append((prepared, k))
                positions.append(i)
            if requests:
                solver = ADPSolver(
                    heuristic=items[positions[0]].method,
                    counting_only=items[positions[0]].counting_only,
                )
                solutions = session.solve_many(requests, solver=solver)
                for position, solution in zip(positions, solutions):
                    prepared = prepared_of[position]
                    outcomes[position] = self._success(
                        session,
                        prepared,
                        session.output_size(prepared),
                        solution,
                        entry.name,
                        version,
                    )
            return outcomes

    def _success(
        self,
        session: "Session",
        prepared: "PreparedQuery",
        total: int,
        solution: "Optional[ADPSolution]",
        name: str,
        version: int,
    ) -> dict:
        payload = solution_payload(session, prepared, total, solution)
        payload.update({"database": name, "version": version, "batched": False})
        return payload

    # ------------------------------------------------------------------ #
    # What-if and deletions
    # ------------------------------------------------------------------ #
    async def _handle_what_if(self, body: dict) -> Tuple[int, dict, dict]:
        start = time.perf_counter()
        entry = self._entry(_require_str(body, "database"))
        query = _require_str(body, "query")
        refs = refs_from_json(body.get("refs", []))
        include_after = bool(body.get("include_after", False))
        with self.admission:
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(
                self.executor,
                self._what_if_job, entry, query, refs, include_after,
                _TRACE_ID.get(),
            )
        payload["elapsed_ms"] = elapsed_ms(start, time.perf_counter())
        return 200, payload, {}

    def _what_if_job(
        self,
        entry: RegisteredDatabase,
        query: str,
        refs: "List[TupleRef]",
        include_after: bool,
        trace_id: Optional[str] = None,
    ) -> dict:
        if not self.config.trace:
            return self._what_if_inner(entry, query, refs, include_after)
        tracer = Tracer(trace_id)
        start = time.perf_counter()
        with use_tracer(tracer):
            with tracer.span("service.what_if", refs=len(refs)):
                payload = self._what_if_inner(entry, query, refs, include_after)
        self._observe_trace(
            tracer, "/v1/what_if", entry, [],
            elapsed_ms(start, time.perf_counter()),
        )
        return payload

    def _what_if_inner(
        self,
        entry: RegisteredDatabase,
        query: str,
        refs: "List[TupleRef]",
        include_after: bool,
    ) -> dict:
        with entry.lock.read():
            if entry.session.closed:
                raise ApiError(503, f"database {entry.name!r} has been evicted")
            result = entry.session.what_if(refs, query)
            payload = what_if_payload(result.single, include_after=include_after)
            payload.update({"database": entry.name, "version": entry.version})
            return payload

    # ------------------------------------------------------------------ #
    # Explain
    # ------------------------------------------------------------------ #
    async def _handle_explain(self, body: dict) -> Tuple[int, dict, dict]:
        """Structured plan introspection: ``Session.explain`` over HTTP.

        Returns the same payload schema as ``repro explain --json`` --
        plan fingerprints are identical across the CLI and the service
        because both reuse ``PreparedQuery.plan_fingerprint`` verbatim.
        """
        start = time.perf_counter()
        entry = self._entry(_require_str(body, "database"))
        query = _require_str(body, "query")
        analyze = bool(body.get("analyze", True))
        with self.admission:
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(
                self.executor, self._explain_job, entry, query, analyze
            )
        payload["elapsed_ms"] = elapsed_ms(start, time.perf_counter())
        return 200, payload, {}

    def _explain_job(
        self, entry: RegisteredDatabase, query: str, analyze: bool
    ) -> dict:
        with entry.lock.read():
            if entry.session.closed:
                raise ApiError(503, f"database {entry.name!r} has been evicted")
            try:
                payload = entry.session.explain(query, analyze=analyze)
            except (ValueError, KeyError) as exc:
                raise ApiError(400, str(exc))
            payload.update({"database": entry.name, "version": entry.version})
        execution = payload.get("execution")
        if not isinstance(execution, dict):
            return payload
        operators = execution.get("operators", [])
        if analyze and operators:
            self._observe_stats(entry.name, operators)
            plan: Dict[str, object] = payload["plan"]  # type: ignore[assignment]
            self.stats_log.record({
                "route": "/v1/explain",
                "database": entry.name,
                "version": entry.version,
                "plan": plan.get("fingerprint"),
                "flags": execution.get("flags"),
                "worst_misestimate": execution.get("worst_misestimate"),
                "operators": operators,
                "recorded_at": round(time.time(), 3),
            })
        return payload

    async def _handle_apply_deletions(self, body: dict) -> Tuple[int, dict, dict]:
        start = time.perf_counter()
        name = _require_str(body, "database")
        entry = self._entry(name)  # 404 before queueing work
        refs = refs_from_json(body.get("refs", []))
        with self.admission:
            loop = asyncio.get_running_loop()
            try:
                removed, version = await loop.run_in_executor(
                    self.executor, self.registry.apply_deletions, name, refs
                )
            except KeyError:
                # Evicted between the _entry() check and the dispatch.
                raise ApiError(404, f"no database named {name!r}")
        self.metrics.deletions_applied(removed)
        return 200, {
            "database": entry.name,
            "removed": removed,
            "version": version,
            "elapsed_ms": elapsed_ms(start, time.perf_counter()),
        }, {}

    async def _handle_apply_insertions(self, body: dict) -> Tuple[int, dict, dict]:
        start = time.perf_counter()
        name = _require_str(body, "database")
        entry = self._entry(name)  # 404 before queueing work
        refs = refs_from_json(body.get("refs", []))
        with self.admission:
            loop = asyncio.get_running_loop()
            try:
                added, version = await loop.run_in_executor(
                    self.executor, self.registry.apply_insertions, name, refs
                )
            except KeyError:
                # Evicted between the _entry() check and the dispatch.
                raise ApiError(404, f"no database named {name!r}")
        self.metrics.insertions_applied(added)
        return 200, {
            "database": entry.name,
            "added": added,
            "version": version,
            "elapsed_ms": elapsed_ms(start, time.perf_counter()),
        }, {}


def _require_str(body: dict, field: str) -> str:
    value = body.get(field)
    if not isinstance(value, str) or not value:
        raise ApiError(400, f"{field!r} must be a non-empty string")
    return value


class ServiceRunner:
    """Run an :class:`AdpService` on a background thread (own event loop).

    The embedding story for tests, the load harness and the example
    client: ``start()`` blocks until the port is bound, ``close()`` tears
    everything down (sessions and worker pools included).
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.service = AdpService(config)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        assert self.service.port is not None, "runner not started"
        return self.service.port

    @property
    def url(self) -> str:
        return f"http://{self.service.config.host}:{self.port}"

    def start(self, timeout: float = 10.0) -> "ServiceRunner":
        self._loop = asyncio.new_event_loop()

        def run() -> None:
            assert self._loop is not None
            asyncio.set_event_loop(self._loop)

            async def boot() -> None:
                try:
                    await self.service.start()
                except BaseException as exc:  # pragma: no cover - bind failure
                    self._startup_error = exc
                finally:
                    self._ready.set()

            self._loop.create_task(boot())
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):  # pragma: no cover - hung startup
            raise RuntimeError("service failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        return self

    def close(self, timeout: float = 30.0) -> None:
        if self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.service.close(), self._loop)
        future.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        assert self._thread is not None
        self._thread.join(timeout)
        self._loop.close()
        self._loop = None

    def __enter__(self) -> "ServiceRunner":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


async def serve(
    config: ServiceConfig,
    preload: Optional[Dict[str, Database]] = None,
) -> None:
    """Run a service until cancelled (the ``repro serve`` entry point).

    ``preload`` registers databases before the port opens, so a client that
    sees the listening line can rely on them being resident.
    """
    service = AdpService(config)
    for name, database in (preload or {}).items():
        service.registry.register(name, database)
    await service.start()
    print(f"repro service listening on http://{config.host}:{service.port}",
          flush=True)
    try:
        await service.serve_forever()
    except asyncio.CancelledError:  # pragma: no cover - signal path
        pass
    finally:
        await service.close()


__all__ = [
    "AdpService",
    "ApiError",
    "ServiceConfig",
    "ServiceRunner",
    "serve",
]
