"""Persistent multiprocessing worker pool for ``solve_many`` group dispatch.

One :class:`WorkerPool` holds N long-lived worker processes connected by
pipes.  Workers are stateful on purpose -- that is the whole point of a
*persistent* pool: each keeps a **database store** of bound databases, each
with a worker-local :class:`~repro.session.Session` whose interning tables
are *seeded in the parent's interned row order*, so worker evaluations
reproduce the parent's witness order (and greedy tie-breaking) exactly.

The parent mirrors the workers' store bound (same FIFO eviction, same
constant, same arrival order through the pipe) as a best-effort predictor
of what each worker holds, so steady-state batches send keys instead of
rows.  Mispredictions are safe in both directions: re-shipping a database
a worker already holds is an idempotent update, and a key-only payload
referencing evicted state comes back as a ``("miss", keys)`` response --
surfaced as :class:`WorkerStoreMiss` -- which callers heal by
:meth:`WorkerPool.forget` + one retry with full payloads.

Dispatch uses one driver thread per worker that strictly alternates
send/recv, so large results can never deadlock the pipes.

Failure model: :class:`PoolBrokenError` (a worker died -- stop using the
pool) vs :class:`WorkerTaskError` (a task raised inside a healthy worker --
fall back for this call only) vs :class:`WorkerStoreMiss` (retryable).
The caller (:meth:`repro.session.Session.solve_many`) always has the serial
path available.  :class:`LazyWorkerPool` is the session-side handle: it
starts the pool on first use and remembers a failed start.

Tracing: a payload may carry a ``"trace"`` key -- a small dict of span
attributes (group and worker index) that the parent's tracer wants stamped
on the worker-side root span.  The worker then runs the task under a fresh
:class:`repro.obs.Tracer` with a ``worker.task`` root span and replies
``("ok+trace", (serialized spans, value))``; the parent grafts the
serialized subtree under its dispatch span (see :meth:`WorkerPool.run`'s
``spans_out``).  Payloads without the key follow the plain ``("ok",
value)`` protocol unchanged, so tracing never affects results -- only an
extra, separately-carried forest of dicts.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import threading
import traceback
import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.data.database import Database

#: Mirrored FIFO bound (parent bookkeeping == worker stores; see module doc).
MAX_DB_ENTRIES = 8


class WorkerTaskError(RuntimeError):
    """A task raised inside a worker; the worker itself is still healthy.

    Callers should fall back (serial solve) for *this* call but keep using
    the pool -- e.g. a user error like an infeasible target raised by the
    solver must not cost the session its workers.
    """


class WorkerStoreMiss(RuntimeError):
    """A worker no longer holds state the parent predicted it would.

    The parent's store bookkeeping is a best-effort predictor (a failed
    dispatch, racing threads or worker eviction can desynchronize it); a
    miss is the protocol-level recovery signal.  ``misses`` lists
    ``(worker, namespace, key)`` triples; callers :meth:`WorkerPool.forget`
    them and retry once, which re-ships the full payloads.
    """

    def __init__(self, misses: Iterable[Tuple[int, str, object]]) -> None:
        super().__init__(f"worker store misses: {misses!r}")
        self.misses = list(misses)


class PoolBrokenError(RuntimeError):
    """A worker died or a pipe broke; the pool must not be reused."""


class _StoreMiss(Exception):
    """Worker-internal: a key-only payload referenced absent state."""

    def __init__(self, keys: Iterable[Tuple[str, object]]) -> None:
        super().__init__(repr(keys))
        self.keys = list(keys)  # (namespace, key) pairs


class WorkerPool:
    """N persistent worker processes plus the parent-side bookkeeping."""

    def __init__(self, workers: int, start_method: Optional[str] = None) -> None:
        if workers < 1:
            raise ValueError(f"worker pool needs >= 1 worker, got {workers}")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        #: ``"fork"`` or ``"spawn"``: whole-query (``solve_group``) dispatch
        #: requires fork (see :meth:`supports_solve_groups`).
        self.start_method = start_method
        self._mp = multiprocessing.get_context(start_method)
        self._procs = []
        self._conns = []
        self._locks: List[threading.Lock] = []
        #: per (worker, namespace): FIFO of keys the worker still holds.
        self._known: Dict[Tuple[int, str], "OrderedDict[object, None]"] = {}
        for _ in range(workers):
            parent_conn, child_conn = self._mp.Pipe()
            proc = self._mp.Process(
                target=_worker_main, args=(child_conn,), daemon=True
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
            self._locks.append(threading.Lock())
        self._known_lock = threading.Lock()
        self._closed = False

    @property
    def size(self) -> int:
        return len(self._procs)

    def supports_solve_groups(self) -> bool:
        """Whether whole-query (``solve_group``) tasks may be dispatched.

        Sessions only dispatch *hard-leaf* groups (see
        ``repro.session._is_leaf_group``), whose solves consume the seeded
        top-level evaluation exclusively -- making them order-independent
        in principle.  The fork-only gate stays as belt-and-suspenders on
        spawn platforms (a fresh string-hash seed there changes every
        internal set/dict order, and no parity suite runs on them).
        """
        return self.start_method == "fork"

    # ------------------------------------------------------------------ #
    # Store bookkeeping (best-effort predictor of worker-resident state)
    # ------------------------------------------------------------------ #
    # Mispredictions are safe in both directions: "worker lacks a key it
    # has" merely re-ships the database (workers ingest idempotently), and
    # "worker holds a key it evicted" comes back as a WorkerStoreMiss,
    # which callers heal with forget() + one retry.
    def has_key(self, worker: int, namespace: str, key: object) -> bool:
        """Whether ``worker`` is predicted to hold ``key`` in the named store."""
        with self._known_lock:
            known = self._known.get((worker, namespace))
            return known is not None and key in known

    def remember(self, worker: int, namespace: str, key: object) -> None:
        """Record that ``worker`` will hold ``key`` (mirroring its eviction)."""
        with self._known_lock:
            known = self._known.setdefault((worker, namespace), OrderedDict())
            if key in known:
                return
            known[key] = None
            while len(known) > MAX_DB_ENTRIES:
                known.popitem(last=False)

    def forget(self, worker: int, namespace: str, key: object) -> None:
        """Drop a prediction (the worker reported it no longer holds ``key``)."""
        with self._known_lock:
            known = self._known.get((worker, namespace))
            if known is not None:
                known.pop(key, None)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def run(
        self,
        tasks: List[Tuple[int, dict]],
        spans_out: Optional[List[Optional[List[dict]]]] = None,
    ) -> List[object]:
        """Run ``(worker index, payload)`` tasks; results in task order.

        ``spans_out``, when given, must be a list with one slot per task;
        slots of tasks whose payload carried a ``"trace"`` key are filled
        with the worker's serialized span forest (``None`` otherwise).

        Raises :class:`PoolBrokenError` when a worker died or a pipe broke
        (stop using the pool), :class:`WorkerTaskError` when a task failed
        inside a healthy worker (fall back for this call, keep the pool),
        and :class:`WorkerStoreMiss` when a worker reported evicted state
        (``forget`` the listed keys and retry once with full payloads).
        """
        if self._closed:
            raise PoolBrokenError("worker pool is closed")
        results: List[object] = [None] * len(tasks)
        task_errors: List[str] = []
        broken: List[str] = []
        misses: List[Tuple[int, str, object]] = []
        per_worker: Dict[int, List[Tuple[int, dict]]] = {}
        for position, (worker, payload) in enumerate(tasks):
            per_worker.setdefault(worker % self.size, []).append((position, payload))

        def drive(worker: int, items: List[Tuple[int, dict]]) -> None:
            conn = self._conns[worker]
            with self._locks[worker]:
                try:
                    for position, payload in items:
                        conn.send(payload)
                        status, value = conn.recv()
                        if status == "ok":
                            results[position] = value
                        elif status == "ok+trace":
                            spans, value = value
                            results[position] = value
                            if spans_out is not None:
                                spans_out[position] = spans
                        elif status == "miss":
                            # The worker is fine; it just evicted state the
                            # parent predicted.  Keep draining this worker's
                            # queue -- later tasks may not depend on it.
                            misses.extend(
                                (worker, namespace, key)
                                for namespace, key in value
                            )
                        else:
                            task_errors.append(f"worker {worker}: {value}")
                            return
                except (EOFError, OSError, BrokenPipeError) as exc:
                    broken.append(f"worker {worker} died: {exc!r}")
                except Exception as exc:  # e.g. an unpicklable payload
                    # ``send`` pickles before writing, so the stream is
                    # intact and the worker stays usable.
                    task_errors.append(
                        f"worker {worker} dispatch failed: {exc!r}"
                    )

        threads = [
            threading.Thread(target=drive, args=(worker, items), daemon=True)
            for worker, items in per_worker.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if broken:
            raise PoolBrokenError("; ".join(broken + task_errors))
        if task_errors:
            raise WorkerTaskError("; ".join(task_errors))
        if misses:
            raise WorkerStoreMiss(misses)
        return results

    def clear_caches(self) -> None:
        """Drop every worker's session caches.

        Worker-resident databases and their interning tables survive (they
        are keyed state, analogous to the parent's interners); only cached
        *results* are dropped, mirroring ``EvaluationCache.clear``.
        """
        self.run([(worker, {"kind": "clear_caches"}) for worker in range(self.size)])

    def ping(self) -> bool:
        """Round-trip every worker (used at startup to verify the pool)."""
        try:
            replies = self.run([(w, {"kind": "ping"}) for w in range(self.size)])
        except (WorkerTaskError, PoolBrokenError):
            return False
        return all(reply == "pong" for reply in replies)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send({"kind": "shutdown"})
            except (OSError, BrokenPipeError):
                pass
        for proc in self._procs:
            proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=0.5)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already gone
                pass
        with self._known_lock:
            self._known.clear()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass


class LazyWorkerPool:
    """The pool one ``Session(workers=N)`` dispatches to, started on demand.

    :meth:`get` starts (and pings) the pool on first use; a failed start or
    a dead worker (:meth:`mark_failed`) makes every later :meth:`get`
    answer ``None``, which keeps ``solve_many`` on the serial path.
    """

    def __init__(self, workers: int) -> None:
        self.workers = int(workers)
        self._pool: Optional[WorkerPool] = None
        self._failed = False
        self._lock = threading.RLock()
        self._db_ids: "weakref.WeakKeyDictionary[Database, int]" = (
            weakref.WeakKeyDictionary()
        )
        self._next_db_id = 0

    def get(self) -> Optional[WorkerPool]:
        """The running pool, started lazily; ``None`` if unavailable."""
        with self._lock:
            if self._failed:
                return None
            if self._pool is None:
                try:
                    pool = WorkerPool(self.workers)
                    if not pool.ping():
                        pool.close()
                        raise RuntimeError("worker pool failed its start ping")
                    self._pool = pool
                except Exception:
                    self._failed = True
                    return None
            return self._pool

    def mark_failed(self) -> None:
        """Stop dispatching to the pool (a worker died)."""
        with self._lock:
            self._failed = True
            if self._pool is not None:
                self._pool.close()
                self._pool = None

    def db_id(self, database: "Database") -> Optional[int]:
        """A stable small id for a database (store keys must not collide)."""
        with self._lock:
            try:
                did = self._db_ids.get(database)
                if did is None:
                    did = self._next_db_id
                    self._db_ids[database] = did
                    self._next_db_id += 1
            except TypeError:  # pragma: no cover - non-weakref-able stub
                return None
            return did

    def clear_caches(self) -> None:
        """Drop results held by live workers; never *starts* a pool."""
        with self._lock:
            pool = self._pool
        if pool is None:
            return
        try:
            pool.clear_caches()
        except PoolBrokenError:
            self.mark_failed()
        except WorkerTaskError:  # pragma: no cover - clear cannot really fail
            pass

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        with self._lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
def _bounded_insert(
    store: "OrderedDict", key: object, value: object, bound: int
) -> None:
    if key in store:
        store[key] = value
        return
    store[key] = value
    while len(store) > bound:
        store.popitem(last=False)


def _handle_solve_group(msg: dict, db_store: "OrderedDict") -> dict:
    """Solve one query group (shared evaluation + one curve, many targets)."""
    from repro.data.database import Database
    from repro.data.relation import Relation
    from repro.engine.columnar import RelationIndex

    dbkey = msg["dbkey"]
    entry = db_store.get(dbkey)
    if entry is None:
        from repro.session import Session

        spec = msg.get("database")
        if spec is None:
            raise _StoreMiss([("db", dbkey)])
        relations = []
        ordered_rows = {}
        for name, (attributes, rows) in spec.items():
            rows = [tuple(row) for row in rows]
            relations.append(Relation(name, attributes, rows))
            ordered_rows[name] = rows
        database = Database(relations)
        # Same array backend as the parent session: byte-identical results
        # either way, but keeping kernels aligned keeps perf predictable.
        session = Session(database, backend=msg.get("backend", "python"))
        # Seed the interning tables in the parent's interned row order, so
        # worker-side witness order (and hence greedy tie-breaking) matches
        # the parent's serial engine exactly.
        for relation in database:
            session._context.seed_index(
                relation,
                RelationIndex.from_rows(
                    relation.name, relation.attributes, ordered_rows[relation.name]
                ),
            )
        entry = (database, session)
        _bounded_insert(db_store, dbkey, entry, MAX_DB_ENTRIES)
    database, session = entry

    query = msg["query"]
    targets = msg["targets"]
    solver = msg["solver"]
    prepared = session.prepare(query)
    context = session._context
    joins_before = context.evaluations
    with session.activate():
        result = context.evaluate(
            prepared.query,
            database,
            order=prepared.join_order,
            query_key=prepared.canonical_key,
        )
        curve = solver.curve_entry(prepared.query, database, max(targets))
        solutions = [
            solver.solve_in_context(
                prepared.query, database, k, result=result, curve=curve
            )
            for k in targets
        ]
    return {"solutions": solutions, "joins": context.evaluations - joins_before}


def _worker_main(conn: "multiprocessing.connection.Connection") -> None:  # pragma: no cover - runs in a subprocess
    """The worker loop: one task in, one ``("ok"| "error", value)`` out.

    A payload carrying a ``"trace"`` dict runs under a fresh worker-side
    tracer (root span ``worker.task`` stamped with the shipped attributes)
    and is answered with ``("ok+trace", (serialized spans, value))`` so the
    parent can graft the subtree under its dispatch span.
    """
    from repro.obs.trace import Tracer, use_tracer

    db_store: "OrderedDict" = OrderedDict()

    def dispatch(kind: Optional[str], msg: dict) -> object:
        if kind == "solve_group":
            return _handle_solve_group(msg, db_store)
        if kind == "clear_caches":
            for _database, session in db_store.values():
                session.clear_cache()
            return "cleared"
        if kind == "ping":
            return "pong"
        raise ValueError(f"unknown task kind {kind!r}")

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg.get("kind")
        if kind == "shutdown":
            break
        trace_attrs = msg.pop("trace", None)
        try:
            if trace_attrs is None:
                conn.send(("ok", dispatch(kind, msg)))
            else:
                tracer = Tracer()
                with use_tracer(tracer):
                    with tracer.span("worker.task", kind=kind, **trace_attrs):
                        value = dispatch(kind, msg)
                conn.send(("ok+trace", (tracer.export(), value)))
        except _StoreMiss as miss:
            try:
                conn.send(("miss", miss.keys))
            except (OSError, BrokenPipeError):
                break
        except BaseException:
            try:
                conn.send(("error", traceback.format_exc()))
            except (OSError, BrokenPipeError):
                break
    try:
        conn.close()
    except OSError:
        pass


__all__ = [
    "MAX_DB_ENTRIES",
    "LazyWorkerPool",
    "PoolBrokenError",
    "WorkerPool",
    "WorkerStoreMiss",
    "WorkerTaskError",
]
