"""Memoizing evaluation cache.

``ComputeADP`` re-evaluates the same (query, database) pair many times in one
solve: once to size the target, once inside the base-case algorithm, once to
verify the returned deletion set -- and the Universe/Decompose dynamic
programs repeat that pattern per sub-instance.  The joins are identical, so
this module caches :class:`~repro.engine.evaluate.QueryResult` objects.

Keying
------
Entries are held in a ``WeakKeyDictionary`` keyed by the ``Database`` object
(so a discarded instance releases its cached results), and within a database
by

* the query's **canonical form** -- the head in order plus the body as a
  sorted set of ``(relation, attribute set)`` pairs, ignoring display names
  and atom order,
* the database's **version token** -- the per-relation mutation counters of
  :meth:`repro.data.database.Database.version_token`, and
* an **array-backend tag** -- ``"python"`` or ``"numpy"``
  (:mod:`repro.engine.backend`).  Both backends produce byte-identical
  values, but their packed payloads differ in representation (plain lists
  vs ``int64`` ndarrays), so entries never cross backends: an A/B
  comparison re-evaluates instead of silently serving the other backend's
  arrays.

In-place mutation bumps a relation's version, so stale entries can never be
returned; they age out of the per-database LRU instead.

Cached results are shared between callers and must be treated as immutable
(every consumer in this library builds its own mutable state, e.g.
``ProvenanceIndex``, on top of them).  All cache operations take an internal
lock, so sessions shared across threads can use one cache concurrently.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.data.database import Database
from repro.query.cq import ConjunctiveQuery

#: Per-database bound on cached results: old entries (including stale
#: versions) are evicted in insertion order once the bound is hit.
MAX_ENTRIES_PER_DATABASE = 64


def canonical_query_key(query: ConjunctiveQuery) -> Hashable:
    """The query part of a cache key.

    Unlike :meth:`ConjunctiveQuery.signature` this keeps the *order* of the
    head (output rows are ordered tuples, so ``Q(A, B)`` and ``Q(B, A)`` must
    not share an entry) while still ignoring the display name and the
    atom/attribute order of the body.
    """
    body = tuple(
        sorted((atom.name, tuple(sorted(atom.attribute_set))) for atom in query.atoms)
    )
    return (query.head, body)


class EvaluationCache:
    """A per-database LRU of evaluation results (see the module docstring)."""

    def __init__(self, max_entries_per_database: int = MAX_ENTRIES_PER_DATABASE) -> None:
        self._per_database: "weakref.WeakKeyDictionary[Database, Dict]" = (
            weakref.WeakKeyDictionary()
        )
        self._max_entries = max_entries_per_database
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def lookup(
        self,
        query: ConjunctiveQuery,
        database: Database,
        query_key: Optional[Hashable] = None,
        backend: Optional[str] = None,
    ) -> Optional[Any]:
        """The cached result for ``(query, database, backend)`` or ``None``.

        ``query_key`` optionally supplies the precomputed canonical key (a
        :class:`~repro.session.PreparedQuery` carries one), skipping the
        per-call canonicalization; ``backend`` is the array-backend tag
        (``"python"``/``"numpy"``).
        Backends produce byte-identical *values* but different column
        representations (lists vs ``int64`` ndarrays), so entries are
        segregated by tag -- a pure-Python session never receives ndarray
        payloads and A/B benchmark runs stay honest.
        """
        if query_key is None:
            query_key = canonical_query_key(query)
        with self._lock:
            entries = self._per_database.get(database)
            if entries is None:
                self.misses += 1
                return None
            key = (query_key, database.version_token(), backend)
            result = entries.get(key)
            if result is None:
                self.misses += 1
                return None
            # Refresh recency (dicts preserve insertion order).
            entries.pop(key)
            entries[key] = result
            self.hits += 1
            return result

    def store(
        self,
        query: ConjunctiveQuery,
        database: Database,
        result: Any,
        query_key: Optional[Hashable] = None,
        backend: Optional[str] = None,
    ) -> None:
        """Cache one evaluation result."""
        if query_key is None:
            query_key = canonical_query_key(query)
        with self._lock:
            try:
                entries = self._per_database.setdefault(database, {})
            except TypeError:  # pragma: no cover - non-weakref-able database stub
                return
            token = database.version_token()
            # Relation versions are monotone and all entries of this dict
            # belong to this database object, so an entry with a different
            # token can never hit again: drop the stale payloads instead of
            # pinning them.
            stale = [key for key in entries if key[1] != token]
            for key in stale:
                entries.pop(key)
            entries[(query_key, token, backend)] = result
            while len(entries) > self._max_entries:
                entries.pop(next(iter(entries)))

    def store_raw(
        self,
        database: Database,
        query_key: Hashable,
        token: Hashable,
        result: Any,
        backend: Optional[str] = None,
    ) -> None:
        """Cache one result under a precomputed ``(query key, version token)``.

        Used by :meth:`repro.session.Session.apply_deletions` to re-home
        delta-filtered results under the database's post-mutation token
        without re-evaluating.  Unlike :meth:`store` it does not drop entries
        with other tokens (the caller migrates a whole snapshot at once).
        """
        with self._lock:
            try:
                entries = self._per_database.setdefault(database, {})
            except TypeError:  # pragma: no cover - non-weakref-able database stub
                return
            entries[(query_key, token, backend)] = result
            while len(entries) > self._max_entries:
                entries.pop(next(iter(entries)))

    def entries_snapshot(self, database: Database) -> Dict[Tuple[Hashable, ...], Any]:
        """A copy of ``{(query key, token, backend): result}``.

        Unlike :meth:`take_entries` the cache keeps its entries: the
        durability layer (:mod:`repro.storage`) peeks at the current packed
        results while writing a snapshot, without disturbing the cache that
        keeps serving concurrent readers.
        """
        with self._lock:
            entries = self._per_database.get(database)
            return dict(entries) if entries else {}

    def take_entries(self, database: Database) -> Dict[Tuple[Hashable, ...], Any]:
        """Remove and return ``{(query key, token, backend): result}``.

        The entries are popped (the cache forgets them); callers that migrate
        results across a version bump re-insert the transformed payloads via
        :meth:`store_raw`.
        """
        with self._lock:
            entries = self._per_database.pop(database, None)
            return dict(entries) if entries else {}

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._per_database = weakref.WeakKeyDictionary()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Tuple[int, int]:
        """``(hits, misses)`` since the last :meth:`clear`."""
        with self._lock:
            return (self.hits, self.misses)
