"""Memoizing evaluation cache.

``ComputeADP`` re-evaluates the same (query, database) pair many times in one
solve: once to size the target, once inside the base-case algorithm, once to
verify the returned deletion set -- and the Universe/Decompose dynamic
programs repeat that pattern per sub-instance.  The joins are identical, so
this module caches :class:`~repro.engine.columnar.QueryResult` objects.

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

Curve cache
-----------
:class:`CurveCache` applies the same per-database LRU and stale-token rule
to solver cost curves.  ``ComputeADP``'s curves do not depend on the target
``k`` beyond where they stop (greedy picks are ``k``-independent, the
dynamic programs' tables for ``j <= kmax`` do not read beyond ``kmax``), so
one curve computed at ``kmax`` answers every ``k <= kmax``.  Keys add the
array-backend tag and a solver key -- the solver class plus the
:class:`~repro.core.adp.SolverConfig` fields that shape a curve -- to the
canonical query and version token.  Entries hold only the immutable curve,
its metadata and an :class:`AnswerMemo` (never a ``ProvenanceIndex``);
mutations drop them instead of migrating them, since greedy curves are not
delta-maintainable -- which is also what keeps a memoized answer from
outliving the version it was computed on.

Answer memo
-----------
Each cached curve entry carries one :class:`AnswerMemo`, keyed by ``(k,
counting_only)``.  An :class:`Answer` holds the verified removed-output
count (read by ``ADPSolver.solve_in_context``) and, once the service has
rendered it, the stable solve payload -- everything of a ``/v1/solve``
response except the per-request fields (``elapsed_ms``, ``trace_id``) and
the envelope (``database``, ``version``, ``batched``).  A warm read at an
already-answered ``k`` is then a dict lookup (``CurveCache.cached_payload``),
which the service answers on its event loop.

The memo is bounded in bytes, not entries: every answer is charged its
encoded length (:func:`encoded_length`) against one per-cache budget,
:data:`MAX_ANSWER_BYTES` (a session owns one curve cache), and the oldest
answers are evicted first.  An entry that leaves the cache (a mutation, a
larger curve replacing it, LRU overflow, ``clear``) takes its answers'
charge with it.
"""

from __future__ import annotations

import json
import threading
import weakref
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.data.database import Database
from repro.query.cq import ConjunctiveQuery

#: Per-database bound on cached results: old entries (including stale
#: versions) are evicted in insertion order once the bound is hit.
MAX_ENTRIES_PER_DATABASE = 64

#: Per-cache (so per-session) bound on the answer memo: the encoded bytes of
#: every memoized answer, summed over the cache's curve entries.  Past it the
#: oldest answers are evicted first.
MAX_ANSWER_BYTES = 4 * 1024 * 1024


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


def _lru_get(entries: Optional[Dict], key: Tuple[Hashable, ...]) -> Optional[Any]:
    """``entries[key]`` with its recency refreshed, or ``None``."""
    if entries is None:
        return None
    value = entries.get(key)
    if value is not None:
        # Refresh recency (dicts preserve insertion order).
        entries.pop(key)
        entries[key] = value
    return value


def _lru_put(
    per_database: "weakref.WeakKeyDictionary[Database, Dict]",
    database: Database,
    key: Tuple[Hashable, ...],
    value: Any,
    bound: int,
    drop_stale: bool = True,
) -> List[Any]:
    """Insert ``value`` under ``key`` and enforce the per-database ``bound``.

    Keys are tuples whose second element is the version token.  With
    ``drop_stale`` entries under another token are dropped first: relation
    versions are monotone and all entries of one dict belong to one database
    object, so such an entry can never hit again.  Returns the values it evicted.
    """
    try:
        entries = per_database.setdefault(database, {})
    except TypeError:  # pragma: no cover - non-weakref-able database stub
        return []
    evicted = []
    if drop_stale:
        for stale in [other for other in entries if other[1] != key[1]]:
            evicted.append(entries.pop(stale))
    entries[key] = value
    while len(entries) > bound:
        evicted.append(entries.pop(next(iter(entries))))
    return evicted


def encoded_length(value: Any) -> int:
    """Bytes of ``value`` as compact, key-sorted UTF-8 JSON: an answer's charge."""
    return len(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )


class Answer:
    """One memoized answer of a curve entry (see the module docstring).

    ``removed_outputs`` is the verified count; ``payload`` is the stable
    solve payload once rendered (``None`` before).  ``nbytes`` is the charge:
    the encoded length of the payload, or of the bare count.
    """

    __slots__ = ("removed_outputs", "payload", "nbytes")

    def __init__(self, removed_outputs: int, payload: Optional[Dict[str, Any]] = None) -> None:
        self.removed_outputs = removed_outputs
        self.payload = payload
        self.nbytes = encoded_length(removed_outputs if payload is None else payload)


class AnswerMemo:
    """One curve entry's answers, ``(k, counting_only) -> Answer``.

    A memo whose entry sits in a :class:`CurveCache` is *bound* to that
    cache, which charges every stored answer against its byte budget and
    may evict it; an unbound memo (a curve nobody caches) just stores.
    Reads are plain dict lookups: an answer is replaced only by one that
    adds the payload, and both carry the same count.
    """

    __slots__ = ("answers", "owner")

    def __init__(self) -> None:
        self.answers: Dict[Hashable, Answer] = {}
        self.owner: Optional["CurveCache"] = None

    def get(self, key: Hashable) -> Optional[Answer]:
        return self.answers.get(key)

    def put(self, key: Hashable, answer: Answer) -> Answer:
        """Store ``answer`` unless the memo holds one at least as complete.

        Returns the answer the memo keeps (which the caller should use).
        """
        owner = self.owner
        if owner is not None:
            return owner._remember(self, key, answer)
        return _keep(self.answers, key, answer)[0]


def _keep(
    answers: Dict[Hashable, Answer], key: Hashable, answer: Answer
) -> Tuple[Answer, Optional[Answer]]:
    """``(kept, replaced)`` after offering ``answer`` for ``key``.

    A stored answer wins unless ``answer`` adds the payload it lacks.
    """
    current = answers.get(key)
    if current is not None and (current.payload is not None or answer.payload is None):
        return current, None
    answers[key] = answer
    return answer, current


class _VersionedLRU:
    """Per-database LRU maps keyed by ``(query key, version token, ...)``.

    The shared state of :class:`EvaluationCache` and :class:`CurveCache`: a
    ``WeakKeyDictionary`` from database to an insertion-ordered dict
    (maintained by :func:`_lru_get` / :func:`_lru_put` under the lock), a
    per-database entry bound, hit/miss counters and an internal lock.
    """

    def __init__(self, max_entries_per_database: int = MAX_ENTRIES_PER_DATABASE) -> None:
        self._per_database: "weakref.WeakKeyDictionary[Database, Dict]" = (
            weakref.WeakKeyDictionary()
        )
        self._max_entries = max_entries_per_database
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _dropped(self, values: List[Any]) -> None:
        """Hook: ``values`` just left the cache (caller holds the lock)."""

    def drop(self, database: Database) -> None:
        """Forget every entry of one database (counters are kept)."""
        with self._lock:
            entries = self._per_database.pop(database, None)
            self._dropped(list(entries.values()) if entries else [])

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            for entries in list(self._per_database.values()):
                self._dropped(list(entries.values()))
            self._per_database = weakref.WeakKeyDictionary()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Tuple[int, int]:
        """``(hits, misses)`` since the last :meth:`clear`."""
        with self._lock:
            return (self.hits, self.misses)


class EvaluationCache(_VersionedLRU):
    """A per-database LRU of evaluation results (see the module docstring)."""

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
            result = _lru_get(
                self._per_database.get(database),
                (query_key, database.version_token(), backend),
            )
            if result is None:
                self.misses += 1
            else:
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
        """Cache one evaluation result (dropping entries of stale versions)."""
        if query_key is None:
            query_key = canonical_query_key(query)
        with self._lock:
            _lru_put(
                self._per_database,
                database,
                (query_key, database.version_token(), backend),
                result,
                self._max_entries,
            )

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
            _lru_put(
                self._per_database,
                database,
                (query_key, token, backend),
                result,
                self._max_entries,
                drop_stale=False,
            )

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


class CurveCache(_VersionedLRU):
    """A per-database LRU of solver cost curves (see the module docstring).

    Values are :class:`repro.core.adp.CurveEntry` objects (``kmax``,
    ``curve``, ``heuristic_fallbacks``, ``answers``); a lookup for target
    ``k`` hits only an entry computed at ``kmax >= k``.  Its counters are
    separate from the evaluation cache's, so curve reads never show up as
    evaluation hits.  The cache also owns the byte budget of its entries'
    answer memos.
    """

    def __init__(
        self, max_entries_per_database: int = MAX_ENTRIES_PER_DATABASE
    ) -> None:
        super().__init__(max_entries_per_database)
        #: Every charged answer, oldest first: ``(id(memo), key) -> memo``.
        self._charged: "OrderedDict[Tuple[int, Hashable], AnswerMemo]" = OrderedDict()
        self._answer_bytes = 0

    def _covering(
        self, database: Database, key: Tuple[Hashable, ...], k: int
    ) -> Optional[Any]:
        """The entry under ``key`` if it covers ``k`` (caller holds the lock)."""
        entry = _lru_get(self._per_database.get(database), key)
        if entry is None or entry.kmax < k:
            return None
        return entry

    def lookup(
        self,
        database: Database,
        query_key: Hashable,
        backend: str,
        solver_key: Hashable,
        k: int,
    ) -> Optional[Any]:
        """The entry for the current database version covering ``k``, or ``None``."""
        key = (query_key, database.version_token(), backend, solver_key)
        with self._lock:
            entry = self._covering(database, key, k)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            return entry

    def cached_payload(
        self,
        database: Database,
        query_key: Hashable,
        backend: str,
        solver_key: Hashable,
        k: int,
        counting_only: bool,
    ) -> Optional[Dict[str, Any]]:
        """The memoized stable payload of a solve at ``k``, or ``None``.

        Never computes anything.  A payload found counts as one hit, as the
        read-off it replaces would; nothing found counts nothing, so the
        solve that follows counts its own hit or miss.
        """
        key = (query_key, database.version_token(), backend, solver_key)
        with self._lock:
            entry = self._covering(database, key, k)
            answer = None if entry is None else entry.answers.get((k, counting_only))
            if answer is None or answer.payload is None:
                return None
            self.hits += 1
            return answer.payload

    def remember_payload(
        self,
        database: Database,
        query_key: Hashable,
        backend: str,
        solver_key: Hashable,
        k: int,
        counting_only: bool,
        payload: Dict[str, Any],
    ) -> None:
        """Memoize ``payload`` (a copy) on the current entry covering ``k``.

        ``payload`` must be the stable rendering of the solve at ``k`` on
        this database version; a curve computed at any ``kmax >= k`` gives
        the same answer, so it does not matter which covering entry keeps
        it.  Without such an entry (none cached) nothing is stored.
        """
        key = (query_key, database.version_token(), backend, solver_key)
        with self._lock:
            entry = self._covering(database, key, k)
        if entry is None:
            return
        memo_key = (k, counting_only)
        current = entry.answers.get(memo_key)
        if current is not None and current.payload is not None:
            return
        # Encoding for the charge happens outside the cache lock.
        entry.answers.put(memo_key, Answer(payload["removed_outputs"], dict(payload)))

    def _remember(self, memo: AnswerMemo, key: Hashable, answer: Answer) -> Answer:
        """:meth:`AnswerMemo.put` for a memo bound to this cache."""
        with self._lock:
            if memo.owner is self and answer.nbytes > MAX_ANSWER_BYTES:
                # Never kept: storing it would evict every other answer
                # and then itself.
                return memo.answers.get(key) or answer
            kept, replaced = _keep(memo.answers, key, answer)
            if memo.owner is not self or kept is not answer:
                return kept  # released meanwhile (uncharged), or nothing new
            if replaced is not None:
                self._charged.pop((id(memo), key))
                self._answer_bytes -= replaced.nbytes
            self._charge(memo, key, answer)
            return kept

    def _charge(self, memo: AnswerMemo, key: Hashable, answer: Answer) -> None:
        """Charge one stored answer, evicting the oldest past the budget.

        Caller holds the lock.
        """
        self._charged[(id(memo), key)] = memo
        self._answer_bytes += answer.nbytes
        while self._answer_bytes > MAX_ANSWER_BYTES:
            (_, oldest), owner = self._charged.popitem(last=False)
            self._answer_bytes -= owner.answers.pop(oldest).nbytes

    def _bind(self, entry: Any) -> None:
        """Charge ``entry``'s memo to this cache (caller holds the lock)."""
        memo = entry.answers
        memo.owner = self
        for key, answer in list(memo.answers.items()):
            self._charge(memo, key, answer)

    def _dropped(self, values: List[Any]) -> None:
        """Uncharge the memos of entries leaving the cache (caller holds the lock)."""
        for entry in values:
            memo = entry.answers
            if memo.owner is not self:
                continue
            # Snapshot while bound: once the owner is cleared, a solver
            # thread's ``put`` writes the dict without this lock.
            charged = list(memo.answers.items())
            memo.owner = None
            for key, answer in charged:
                if self._charged.pop((id(memo), key), None) is not None:
                    self._answer_bytes -= answer.nbytes

    def answer_bytes(self) -> int:
        """The bytes the answer memo holds (never above its budget)."""
        with self._lock:
            return self._answer_bytes

    def store(
        self,
        database: Database,
        query_key: Hashable,
        token: Hashable,
        backend: str,
        solver_key: Hashable,
        entry: Any,
    ) -> None:
        """Cache an entry computed at version ``token`` (replacing a smaller one).

        An entry whose token is no longer current is discarded (the database
        changed while the curve was being computed), and so is one whose
        ``kmax`` does not exceed the stored entry's (a concurrent solve
        cached a larger curve first).
        """
        key = (query_key, token, backend, solver_key)
        with self._lock:
            if token != database.version_token():
                return
            current = _lru_get(self._per_database.get(database), key)
            if current is not None and current.kmax >= entry.kmax:
                return
            evicted = _lru_put(self._per_database, database, key, entry, self._max_entries)
            self._dropped(evicted + ([current] if current is not None else []))
            self._bind(entry)
