"""The database store: recovery orchestration over snapshot + log.

:class:`DatabaseStore` owns one data directory with one subdirectory per
registered database::

    <data_dir>/<name>/snapshot.bin    columnar snapshot (repro.storage.snapshot)
    <data_dir>/<name>/log.bin         append-only mutation log (repro.storage.log)

The durability contract, end to end:

* **Registration** writes an initial snapshot before the client is
  acknowledged; a crash mid-write leaves no renamed snapshot, so the name
  simply does not exist after restart (matching the unacknowledged
  request).
* **Mutations** write through: after the in-memory ``Session.apply_*``
  succeeds, the batch is appended (and fsynced) to the log *before* the
  response goes out.  Recovery replays exactly the acknowledged suffix; a
  torn final record is an unacknowledged batch and is truncated away.
* **Compaction**: once the log accumulates ``compact_after`` records, a
  fresh snapshot (embedding the latest LSN and the currently-cached packed
  provenance) is written and the log resets.  A crash between the rename
  and the reset leaves stale records whose LSN the snapshot already
  covers; replay skips them.
* **Recovery** (:meth:`DatabaseStore.load`) rebuilds the
  :class:`~repro.session.Session` byte-identically: relations are refilled
  in interned order, the interning tables are reseeded into the engine
  context (:meth:`~repro.engine.columnar.RelationIndex.from_rows`), cached
  packed provenance re-enters the evaluation cache under the restored
  version token, and the log suffix replays through the ordinary
  ``apply_insertions`` / ``apply_deletions`` delta machinery -- which also
  migrates the restored cache entries, so the first post-recovery solve is
  a warm cache hit.
* **Degradation**: the first ``OSError`` from the data directory flips the
  store into degraded mode.  Further write-throughs fail fast with
  :class:`StorageUnavailableError` (the service maps it to ``503`` +
  ``Retry-After``) while reads keep serving the in-memory state.
"""

from __future__ import annotations

import shutil
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.data.database import Database
from repro.data.relation import Relation, TupleRef
from repro.engine.backend import as_id_list, id_column_to_bytes
from repro.engine.cache import canonical_query_key
from repro.engine.columnar import ColumnarProvenance, RelationIndex
from repro.engine.evaluate import QueryResult
from repro.query.atoms import Atom
from repro.query.cq import ConjunctiveQuery
from repro.session import Session
from repro.storage.log import OP_DELETE, OP_INSERT, LogRecord, MutationLog
from repro.storage.snapshot import (
    RelationSnapshot,
    ResultSnapshot,
    SnapshotCorruptError,
    write_snapshot,
    read_snapshot,
)

SNAPSHOT_FILE = "snapshot.bin"
LOG_FILE = "log.bin"

#: Log records accumulated before a compaction snapshot rewrites the image.
DEFAULT_COMPACT_AFTER = 64


class StorageError(RuntimeError):
    """Base class for durability-layer failures."""


class StorageUnavailableError(StorageError):
    """The data directory is erroring; writes cannot be made durable.

    The service tier maps this to ``503`` + ``Retry-After`` on the write
    path while the read path keeps serving the in-memory state.
    """


@dataclass
class RecoveredDatabase:
    """What :meth:`DatabaseStore.load` hands back to the registry."""

    name: str
    database: Database
    session: Session
    version: int
    replayed_records: int


@dataclass
class _EntryState:
    """Per-name log handle and write-side counters."""

    log: MutationLog
    lsn: int = 0
    records_since_snapshot: int = 0


class DatabaseStore:
    """Crash-consistent persistence for a directory of databases.

    Thread-safety: every per-name operation serializes on a per-name lock;
    the registry additionally holds its per-entry write lock around
    mutation write-throughs and flushes, so a snapshot capture never races
    the session state it reads.
    """

    def __init__(
        self,
        data_dir: Union[str, Path],
        *,
        compact_after: int = DEFAULT_COMPACT_AFTER,
    ) -> None:
        self.root = Path(data_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self.compact_after = max(1, compact_after)
        self._lock = threading.Lock()
        self._states: Dict[str, _EntryState] = {}
        self._name_locks: Dict[str, threading.Lock] = {}
        self.degraded_reason: Optional[str] = None
        self.recovered_total = 0
        self.replayed_records_total = 0
        self.snapshots_written = 0
        self.compactions_total = 0
        self.records_appended_total = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def degraded(self) -> bool:
        return self.degraded_reason is not None

    def names(self) -> List[str]:
        """Every name with a durable snapshot on disk, sorted."""
        try:
            children = list(self.root.iterdir())
        except OSError:
            return []
        return sorted(
            child.name for child in children if (child / SNAPSHOT_FILE).is_file()
        )

    def exists(self, name: str) -> bool:
        return (self._dir(name) / SNAPSHOT_FILE).is_file()

    def stats(self) -> Dict[str, object]:
        """The ``/healthz`` storage block."""
        return {
            "data_dir": str(self.root),
            "persisted": len(self.names()),
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "recovered_total": self.recovered_total,
            "replayed_records_total": self.replayed_records_total,
            "snapshots_written": self.snapshots_written,
            "compactions_total": self.compactions_total,
            "records_appended_total": self.records_appended_total,
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _dir(self, name: str) -> Path:
        return self.root / name

    def _name_lock(self, name: str) -> threading.Lock:
        with self._lock:
            lock = self._name_locks.get(name)
            if lock is None:
                lock = self._name_locks[name] = threading.Lock()
            return lock

    def _state(self, name: str) -> _EntryState:
        with self._lock:
            state = self._states.get(name)
            if state is None:
                state = self._states[name] = _EntryState(
                    MutationLog(self._dir(name) / LOG_FILE)
                )
            return state

    def _drop_state(self, name: str) -> None:
        with self._lock:
            state = self._states.pop(name, None)
        if state is not None:
            state.log.close()

    def _enter_degraded(self, reason: str) -> StorageUnavailableError:
        self.degraded_reason = reason
        return StorageUnavailableError(reason)

    # ------------------------------------------------------------------ #
    # Capture: session state -> snapshot records
    # ------------------------------------------------------------------ #
    def _capture(
        self, session: Session
    ) -> Tuple[List[RelationSnapshot], List[ResultSnapshot]]:
        """The durable image of a session's current state.

        Relations are captured through their interning tables (rows in
        ``tid`` order plus dead tids), preferring the index objects the
        cached provenance actually references so the persisted columns and
        tables agree; cached results whose indexes disagree with the chosen
        table (possible only after an unrelated re-interning) are skipped
        rather than persisted inconsistently.
        """
        database = session.database
        context = session._context
        token = database.version_token()
        kept: List[QueryResult] = []
        seen_keys = set()
        for (query_key, tok, _backend), result in context.cache.entries_snapshot(
            database
        ).items():
            if tok != token:
                continue
            if query_key in seen_keys:
                continue
            seen_keys.add(query_key)
            kept.append(result)
        chosen: Dict[str, RelationIndex] = {}
        for result in kept:
            provenance = result.provenance
            for rel_name, index in zip(provenance.atom_names, provenance.indexes):
                chosen.setdefault(rel_name, index)
        consistent = [
            result
            for result in kept
            if all(
                chosen[rel_name] is index
                for rel_name, index in zip(
                    result.provenance.atom_names, result.provenance.indexes
                )
            )
        ]
        relations: List[RelationSnapshot] = []
        for rel_name in database.relation_names:
            relation = database.relation(rel_name)
            index = chosen.get(rel_name)
            if index is None:
                index = context.interned(relation)
            live = set(relation)
            missing = [row for row in live if row not in index.ids]
            if missing:
                # A live row outside the chosen interning table can only
                # happen when the table predates an out-of-session mutation;
                # extend deterministically and drop the (now-inconsistent)
                # cached results rather than persist mismatched columns.
                missing.sort(key=repr)
                index = RelationIndex.extended(index, missing)
                consistent = []
            rows = list(index.rows)
            dead = tuple(
                tid for tid, row in enumerate(rows) if row not in live
            )
            relations.append(
                RelationSnapshot(
                    rel_name, relation.attributes, relation.version, rows, dead
                )
            )
        results = [
            ResultSnapshot(
                result.query.name,
                tuple(result.query.head),
                tuple(
                    (atom.name, tuple(atom.attributes))
                    for atom in result.query.atoms
                ),
                tuple(result.provenance.atom_names),
                tuple(ref.relation for ref in result.provenance.vacuum_refs),
                [
                    id_column_to_bytes(column)
                    for column in result.provenance.ref_columns
                ],
                id_column_to_bytes(result.provenance.witness_outputs),
                [tuple(row) for row in result.provenance.output_rows],
            )
            for result in consistent
        ]
        return relations, results

    def _save_snapshot_locked(
        self, name: str, session: Session, registry_version: int
    ) -> None:
        state = self._state(name)
        relations, results = self._capture(session)
        directory = self._dir(name)
        directory.mkdir(parents=True, exist_ok=True)
        write_snapshot(
            directory / SNAPSHOT_FILE,
            registry_version=registry_version,
            lsn=state.lsn,
            relations=relations,
            results=results,
        )
        state.log.reset()
        state.records_since_snapshot = 0
        self.snapshots_written += 1

    # ------------------------------------------------------------------ #
    # Write paths
    # ------------------------------------------------------------------ #
    def initialize(
        self,
        name: str,
        session: Session,
        registry_version: int,
        *,
        replace: bool = False,
    ) -> None:
        """Persist a newly-registered database (snapshot + fresh log)."""
        if self.degraded:
            raise StorageUnavailableError(self.degraded_reason or "storage degraded")
        with self._name_lock(name):
            try:
                self._drop_state(name)
                if replace:
                    shutil.rmtree(self._dir(name), ignore_errors=True)
                self._save_snapshot_locked(name, session, registry_version)
            except OSError as exc:
                raise self._enter_degraded(
                    f"initial snapshot for {name!r} failed: {exc}"
                ) from exc

    def record_mutation(
        self,
        name: str,
        session: Session,
        op: int,
        refs: Sequence[TupleRef],
        registry_version: int,
    ) -> None:
        """Durably log one acknowledged mutation batch (write-through).

        Called after the in-memory apply succeeded, before the client is
        acknowledged, under the registry entry's write lock.  Crossing the
        ``compact_after`` threshold rewrites the snapshot (absorbing the
        log) in the same critical section.
        """
        if self.degraded:
            raise StorageUnavailableError(self.degraded_reason or "storage degraded")
        with self._name_lock(name):
            state = self._state(name)
            try:
                record = LogRecord(
                    state.lsn + 1, op, registry_version, state.log.now(), tuple(refs)
                )
                state.log.append(record)
                state.lsn += 1
                state.records_since_snapshot += 1
                self.records_appended_total += 1
                if state.records_since_snapshot >= self.compact_after:
                    self._save_snapshot_locked(name, session, registry_version)
                    self.compactions_total += 1
            except OSError as exc:
                raise self._enter_degraded(
                    f"mutation log append for {name!r} failed: {exc}"
                ) from exc

    def flush(self, name: str, session: Session, registry_version: int) -> None:
        """Compact now (used on eviction so a reload starts warm)."""
        if self.degraded:
            raise StorageUnavailableError(self.degraded_reason or "storage degraded")
        with self._name_lock(name):
            try:
                self._save_snapshot_locked(name, session, registry_version)
            except OSError as exc:
                raise self._enter_degraded(
                    f"eviction flush for {name!r} failed: {exc}"
                ) from exc

    def remove(self, name: str) -> None:
        """Forget a database's durable state (explicit drop)."""
        with self._name_lock(name):
            self._drop_state(name)
            shutil.rmtree(self._dir(name), ignore_errors=True)

    def close(self) -> None:
        with self._lock:
            states = list(self._states.values())
            self._states.clear()
        for state in states:
            state.log.close()

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    def load(
        self,
        name: str,
        *,
        backend: str = "auto",
        workers: int = 1,
    ) -> RecoveredDatabase:
        """Recover ``name``: latest valid snapshot + log-suffix replay.

        Raises :class:`~repro.storage.snapshot.SnapshotCorruptError` when
        the snapshot is missing or fails validation (see
        ``docs/DURABILITY.md`` for the operational runbook).
        """
        with self._name_lock(name):
            directory = self._dir(name)
            stray = directory / (SNAPSHOT_FILE + ".tmp")
            if stray.exists():
                # A crashed writer's temp file: never renamed, never valid.
                stray.unlink()
            payload = read_snapshot(directory / SNAPSHOT_FILE)
            database = Database()
            indexes: Dict[str, RelationIndex] = {}
            for rel_snap in payload.relations:
                relation = Relation(rel_snap.name, rel_snap.attributes)
                # Bulk-load the live set: the decoded rows are already
                # width-checked tuples (CRC-validated columns of the
                # relation's own arity), so the per-row insert() validation
                # would only re-derive what the snapshot guarantees.
                relation._rows.update(rel_snap.live_rows())
                # Restore the mutation counter so version_token() -- the
                # evaluation-cache key -- matches the pre-crash value.
                relation._version = rel_snap.version
                database.add_relation(relation)
                indexes[rel_snap.name] = RelationIndex.from_rows(
                    rel_snap.name, rel_snap.attributes, rel_snap.interned_rows
                )
            session = Session(database, backend=backend, workers=workers)
            context = session._context
            for rel_name, index in indexes.items():
                context.seed_index(database.relation(rel_name), index)
            backend_obj = context.backend
            token = database.version_token()
            for result_snap in payload.results:
                query = ConjunctiveQuery(
                    result_snap.head,
                    tuple(
                        Atom(atom_name, attributes)
                        for atom_name, attributes in result_snap.atoms
                    ),
                    name=result_snap.query_name,
                )
                ref_columns = [
                    backend_obj.id_column_from_buffer(buffer)
                    for buffer in result_snap.ref_column_buffers
                ]
                packed_outputs = backend_obj.id_column_from_buffer(
                    result_snap.witness_output_buffer
                )
                provenance = ColumnarProvenance(
                    query,
                    result_snap.atom_names,
                    [indexes[atom_name] for atom_name in result_snap.atom_names],
                    ref_columns,
                    packed_outputs,
                    result_snap.output_rows,
                    None,
                    tuple(TupleRef(rel, ()) for rel in result_snap.vacuum_refs),
                )
                result = QueryResult(
                    query,
                    result_snap.output_rows,
                    as_id_list(packed_outputs),
                    provenance,
                )
                context.cache.store_raw(
                    database,
                    canonical_query_key(query),
                    token,
                    result,
                    backend=backend_obj.name,
                )
            self._drop_state(name)
            state = self._state(name)
            records = state.log.replay()
            version = payload.registry_version
            replayed = 0
            max_lsn = payload.lsn
            for record in records:
                max_lsn = max(max_lsn, record.lsn)
                if record.lsn <= payload.lsn:
                    continue  # compacted into the snapshot already
                if record.op == OP_INSERT:
                    session.apply_insertions(record.refs)
                elif record.op == OP_DELETE:
                    session.apply_deletions(record.refs)
                version = record.registry_version
                replayed += 1
            state.lsn = max_lsn
            state.records_since_snapshot = replayed
            self.recovered_total += 1
            self.replayed_records_total += replayed
            return RecoveredDatabase(name, database, session, version, replayed)


__all__ = [
    "DEFAULT_COMPACT_AFTER",
    "DatabaseStore",
    "LOG_FILE",
    "OP_DELETE",
    "OP_INSERT",
    "RecoveredDatabase",
    "SNAPSHOT_FILE",
    "SnapshotCorruptError",
    "StorageError",
    "StorageUnavailableError",
]
