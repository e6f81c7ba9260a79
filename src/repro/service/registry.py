"""Named, versioned databases bound to long-lived sessions.

The service never constructs a :class:`~repro.session.Session` per request
-- the whole point of the session API is that the evaluation cache, the
interning tables and (for ``workers > 1`` sessions) the worker pool amortize
across requests.  The :class:`SessionRegistry` owns that mapping:

* **names** -- clients address databases by name (``"tpch"``), never by
  object identity;
* **versions** -- every successful ``apply_deletions`` /
  ``apply_insertions`` bumps the entry's monotonically increasing version
  number.  Responses carry the version they were computed against, so a
  client can tell pre- and post-mutation answers apart;
* **per-database read/write locks** -- solves and what-ifs take the read
  side (the session read paths are thread-safe, so any number run
  concurrently), ``apply_deletions`` / ``apply_insertions`` take the write
  side: a writer waits for every in-flight read to drain -- reads admitted
  before the write therefore complete against the prior version -- and
  blocks new reads until the mutation (and its cache migration) is done.
  The lock is write-preferring, so a steady read stream cannot starve a
  mutation;
* **LRU bound** -- at most ``capacity`` databases stay resident; inserting
  beyond it closes and evicts the least-recently-used entry
  (:meth:`Session.close` shuts down its caches and worker pool
  deterministically -- the satellite contract this registry relies on);
* **durability** (optional) -- with a :class:`~repro.storage.DatabaseStore`
  attached, registrations snapshot to disk, mutations write through to the
  append-only log *before* the client is acknowledged, LRU eviction
  compacts the evictee's state to disk first, and a missing name
  lazily rehydrates from disk (so an evicted or restarted database comes
  back at the exact version clients last saw, warm cache included).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterable, Iterator, List, Optional

from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.session import Session
from repro.storage import OP_DELETE, OP_INSERT, DatabaseStore, StorageError


class DuplicateDatabaseError(ValueError):
    """The database name is already registered (HTTP 409, not 400)."""


class ReadWriteLock:
    """A write-preferring readers/writer lock (threading-based).

    Used by the registry entries (solver threads block on it, so it cannot
    be an asyncio primitive) and by the concurrency contract tests, which
    replay the same serialize-writes-drain-reads discipline the service
    promises.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            # Write preference: new readers queue behind a waiting writer.
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    @contextmanager
    def read(self) -> Iterator["ReadWriteLock"]:
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write(self) -> Iterator["ReadWriteLock"]:
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()


class RegisteredDatabase:
    """One registry entry: a named database, its session, version and lock."""

    __slots__ = ("name", "database", "session", "version", "lock", "created_at")

    def __init__(self, name: str, database: Database, session: Session) -> None:
        self.name = name
        self.database = database
        self.session = session
        self.version = 1
        self.lock = ReadWriteLock()
        self.created_at = time.time()

    def close(self) -> None:
        """Drain in-flight reads, then close the session (pool included)."""
        with self.lock.write():
            self.session.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegisteredDatabase({self.name!r}, v{self.version})"


class SessionRegistry:
    """LRU-bounded mapping ``name -> RegisteredDatabase`` (thread-safe)."""

    def __init__(
        self,
        capacity: int = 8,
        *,
        backend: str = "auto",
        workers: int = 1,
        store: Optional[DatabaseStore] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"registry capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.backend = backend
        self.workers = int(workers)
        self.store = store
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, RegisteredDatabase]" = OrderedDict()
        self._closed = False
        #: Entries closed by LRU overflow (scraped at ``/metrics``).
        #: Mutated under ``_lock``; reads are single int loads (atomic).
        self.evictions_total = 0
        #: Entries brought back from disk (evicted or from a prior process).
        self.rehydrations_total = 0

    # ------------------------------------------------------------------ #
    # CRUD
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        database: Database,
        *,
        replace: bool = False,
        session: Optional[Session] = None,
    ) -> RegisteredDatabase:
        """Bind ``database`` under ``name`` (evicting LRU entries if full).

        ``replace=False`` raises :class:`DuplicateDatabaseError` when the
        name is taken (HTTP 409); ``replace=True`` closes and supersedes the
        old entry.  A custom ``session`` may be supplied (tests); by
        default one is created with the registry's backend/workers.

        With a store attached, re-registering a name that lives on disk but
        is not resident (evicted, or persisted by a previous process)
        **rehydrates** it at its durable version instead of silently
        resetting its mutation history -- the supplied ``database`` is
        ignored in that case.  ``replace=True`` genuinely replaces, wiping
        the durable state too.
        """
        if not name or "/" in name:
            raise ValueError(f"invalid database name {name!r}")
        if (
            self.store is not None
            and not replace
            and name not in self
            and self.store.exists(name)
        ):
            # An evicted (or pre-restart) database keeps its identity: the
            # durable version and mutation history win over a fresh bind.
            if session is not None:
                session.close()
            return self._rehydrate(name)
        owned = session is None
        if session is None:
            session = Session(
                database, backend=self.backend, workers=self.workers
            )
        entry = RegisteredDatabase(name, database, session)
        superseded: List[RegisteredDatabase] = []
        evicted: List[RegisteredDatabase] = []
        with self._lock:
            if self._closed:
                if owned:  # never destroy a session the caller still owns
                    session.close()
                raise RuntimeError("registry is closed")
            old = self._entries.get(name)
            if old is not None and not replace:
                if owned:
                    session.close()
                raise DuplicateDatabaseError(
                    f"database {name!r} already registered"
                )
            if old is not None:
                # Superseding counts as a mutation: the version continues
                # past the old entry's, so (name, version) stays unambiguous
                # across the replacement (batch keys and client caches rely
                # on it).
                entry.version = old.version + 1
                superseded.append(old)
                del self._entries[name]
            self._entries[name] = entry
            while len(self._entries) > self.capacity:
                _lru_name, lru = self._entries.popitem(last=False)
                evicted.append(lru)
                self.evictions_total += 1
        # Close outside the registry lock: close() drains the entry's
        # in-flight readers, and those readers never touch the registry
        # lock while running, so this cannot deadlock -- but holding the
        # registry lock across a drain would stall every other endpoint.
        for stale in superseded:
            stale.close()
        for stale in evicted:
            self._flush_evicted(stale)
            stale.close()
        if self.store is not None:
            try:
                self.store.initialize(name, session, entry.version, replace=replace)
            except StorageError:
                # Registration could not be made durable: undo it so the
                # in-memory and on-disk views never disagree about whether
                # the name exists.
                with self._lock:
                    if self._entries.get(name) is entry:
                        del self._entries[name]
                entry.close()
                raise
        return entry

    def get(self, name: str) -> RegisteredDatabase:
        """The entry for ``name`` (refreshing its LRU position).

        A name that is not resident but has durable state lazily rehydrates
        from disk -- the restart path: a fresh process serves its first
        request for a persisted database by recovering it here.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is not None:
                self._entries.move_to_end(name)
                return entry
            closed = self._closed
        if not closed and self.store is not None and self.store.exists(name):
            return self._rehydrate(name)
        raise KeyError(f"no database named {name!r}")

    def _rehydrate(self, name: str) -> RegisteredDatabase:
        """Recover ``name`` from the store and install it (LRU rules apply)."""
        assert self.store is not None
        recovered = self.store.load(
            name, backend=self.backend, workers=self.workers
        )
        entry = RegisteredDatabase(name, recovered.database, recovered.session)
        entry.version = recovered.version
        evicted: List[RegisteredDatabase] = []
        with self._lock:
            if self._closed:
                recovered.session.close()
                raise RuntimeError("registry is closed")
            existing = self._entries.get(name)
            if existing is not None:
                # A concurrent request rehydrated first; keep theirs.
                recovered.session.close()
                self._entries.move_to_end(name)
                return existing
            self._entries[name] = entry
            while len(self._entries) > self.capacity:
                _lru_name, lru = self._entries.popitem(last=False)
                evicted.append(lru)
                self.evictions_total += 1
            self.rehydrations_total += 1
        for stale in evicted:
            self._flush_evicted(stale)
            stale.close()
        return entry

    def _flush_evicted(self, stale: RegisteredDatabase) -> None:
        """Compact an evictee to disk so eviction never loses history.

        Best-effort on top of the write-through log: every acknowledged
        mutation is already durable, so a failed flush (degraded storage)
        only costs the cached-provenance warmth, not correctness.
        """
        if self.store is None:
            return
        try:
            with stale.lock.write():
                self.store.flush(stale.name, stale.session, stale.version)
        except StorageError:
            pass

    def drop(self, name: str) -> None:
        """Unregister and close one entry, durable state included.

        ``KeyError`` when the name neither is resident nor has durable
        state.
        """
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is None and not (
            self.store is not None and self.store.exists(name)
        ):
            raise KeyError(f"no database named {name!r}")
        if entry is not None:
            entry.close()
        if self.store is not None:
            self.store.remove(name)

    def entries(self) -> List[RegisteredDatabase]:
        """Every resident entry, least- to most-recently used."""
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    # ------------------------------------------------------------------ #
    # Mutation bookkeeping
    # ------------------------------------------------------------------ #
    def apply_deletions(
        self, name: str, refs: Iterable[TupleRef]
    ) -> "tuple[int, int]":
        """Delete ``refs`` from the named database under its write lock.

        Returns ``(removed count, resulting version)``.  The version bumps
        only when tuples were actually removed -- a no-op deletion leaves
        cached results (and the version clients cache against) intact.

        With a store attached the batch is appended to the mutation log
        *before* returning: a :class:`~repro.storage.StorageError` here
        means the client was never acknowledged, so replaying (or retrying)
        the batch is safe.
        """
        entry = self.get(name)
        ref_list = list(refs)
        with entry.lock.write():
            if entry.session.closed:
                # Evicted while we waited for the write lock: to the caller
                # the database is simply gone.
                raise KeyError(f"no database named {name!r}")
            removed = entry.session.apply_deletions(ref_list)
            if removed:
                entry.version += 1
                if self.store is not None:
                    self.store.record_mutation(
                        name, entry.session, OP_DELETE, ref_list, entry.version
                    )
            return removed, entry.version

    def apply_insertions(
        self, name: str, refs: Iterable[TupleRef]
    ) -> "tuple[int, int]":
        """Insert ``refs`` into the named database under its write lock.

        Returns ``(added count, resulting version)``.  The version bumps
        only when tuples actually landed -- a no-op batch (duplicates,
        unknown relations) leaves cached results (and the version clients
        cache against) intact.

        Durability mirrors :meth:`apply_deletions`: log append before the
        acknowledgement, failure means the batch is retry-safe.
        """
        entry = self.get(name)
        ref_list = list(refs)
        with entry.lock.write():
            if entry.session.closed:
                # Evicted while we waited for the write lock: to the caller
                # the database is simply gone.
                raise KeyError(f"no database named {name!r}")
            added = entry.session.apply_insertions(ref_list)
            if added:
                entry.version += 1
                if self.store is not None:
                    self.store.record_mutation(
                        name, entry.session, OP_INSERT, ref_list, entry.version
                    )
            return added, entry.version

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close every session and refuse further registrations.

        With a store attached each entry is compacted to disk first (best
        effort -- the write-through log already holds every acknowledged
        mutation), so a graceful shutdown restarts with warm snapshots.
        """
        with self._lock:
            self._closed = True
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            self._flush_evicted(entry)
            entry.close()


__all__ = [
    "DuplicateDatabaseError",
    "ReadWriteLock",
    "RegisteredDatabase",
    "SessionRegistry",
]
