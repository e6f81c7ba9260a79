"""Conjunctive-query evaluation with which-provenance.

The ADP algorithms need two things from the evaluation engine:

1. the query answer ``Q(D)`` (the distinct projection of the natural join of
   the body on the head attributes), and
2. for every output tuple, the set of *witnesses*: full-join rows that
   produce it, each witness being one input tuple per (non-vacuum) atom.

Witness-level provenance is exactly what the greedy heuristics, the Singleton
base case, the brute-force baseline, and solution verification consume, so
:meth:`EngineContext.evaluate` produces both in one pass.

Engine internals
----------------
The join is a left-deep hash join that never materializes one assignment
dict and one ``Witness`` object per full-join row.  Instead
:mod:`repro.engine.columnar` interns each relation's tuples into dense
integer IDs and runs the join over whole ID columns; provenance is stored as
one packed ``tid`` column per atom, factorized per output through
``witness_outputs``.  The :class:`~repro.engine.columnar.QueryResult` this
module returns is that one packed table: the solver hot paths read its
columns directly, and ``Witness`` objects are materialized lazily by
``result.witnesses``.

Atoms are ordered so that each new atom shares attributes with the part
already joined whenever the query is connected; within a disconnected query
the components are joined by cross product, matching the semantics used in
the paper (Lemma 3).

Results are memoized in :class:`repro.engine.cache.EvaluationCache`, keyed by
the query's canonical form and the database's version token, so the repeated
evaluations issued by ``ComputeADP`` (sizing, base case, verification) and by
the Universe/Decompose recursions cost one join instead of several.  Cached
``QueryResult`` objects are shared -- treat them as immutable.

Engine contexts (session-owned state)
-------------------------------------
The cache and the interning tables live on an :class:`EngineContext`, which
every :class:`repro.session.Session` owns.  Library internals evaluate
through :func:`evaluate_in_context`, which routes to the *active* context
(set by ``Session`` methods via :func:`use_context`) or, outside any
session, to a fresh :class:`EngineContext` per call.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.data.database import Database
from repro.data.relation import Relation, Row, TupleRef
from repro.engine.backend import (
    MIN_VECTOR_TUPLES,
    Backend,
    BackendLike,
    Column,
    NumpyBackend,
    factorize_codes,
    gated_backend,
    python_backend,
    rank_first_occurrence,
    resolve_backend,
)
from repro.engine.cache import CurveCache, EvaluationCache
from repro.engine.columnar import (
    IndexSupplier,
    QueryResult,
    RelationIndex,
    empty_result,
    join_columns,
)
from repro.obs.trace import span
from repro.query.cq import ConjunctiveQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.query.atoms import Atom


def _join_order_steps(
    query: ConjunctiveQuery,
) -> List[Tuple[int, List[int], List[str], str]]:
    """The greedy join order with, per step, the tie-break rationale.

    Returns ``(index, candidates, overlap, reason)`` tuples: the chosen atom
    index, the candidate indices it was picked from, the (sorted) attributes
    it shares with the already-joined set, and a human-readable reason.  This
    is the *single* source of truth for the join order -- :func:`_join_order`
    and the EXPLAIN rationale both read it, so they can never disagree.
    """
    atoms = list(query.atoms)
    remaining = set(range(len(atoms)))
    steps: List[Tuple[int, List[int], List[str], str]] = []
    joined_attrs: Set[str] = set()
    while remaining:
        # Prefer an atom sharing attributes with what is already joined.
        candidates = [
            i for i in sorted(remaining) if atoms[i].attribute_set & joined_attrs
        ]
        fresh_component = not candidates
        if fresh_component:
            # Start a new connected component: pick the first remaining atom
            # in body order (deterministic), smallest relations first would
            # also be valid but body order keeps plans reproducible.
            candidates = [min(remaining)]
        # Among candidates prefer larger overlap (cheaper hash join).
        best = max(
            candidates,
            key=lambda i: (len(atoms[i].attribute_set & joined_attrs), -i),
        )
        overlap = sorted(atoms[best].attribute_set & joined_attrs)
        if fresh_component:
            reason = "starts a component: first remaining atom in body order"
        elif len(candidates) == 1:
            reason = "only atom sharing attributes with the joined set"
        else:
            reason = (
                f"largest shared-attribute overlap among {len(candidates)} "
                "connected candidates; earliest body position on ties"
            )
        steps.append((best, candidates, overlap, reason))
        remaining.remove(best)
        joined_attrs |= atoms[best].attribute_set
    return steps


def _join_order(query: ConjunctiveQuery) -> List[int]:
    """A connected join order over atom indices (greedy BFS on shared attrs)."""
    return [index for index, _candidates, _overlap, _reason in _join_order_steps(query)]


def join_order_plan(query: ConjunctiveQuery) -> Tuple[int, ...]:
    """The engine's join order over the *non-vacuum* atoms of ``query``.

    This is exactly the plan both engines execute; computing it once is part
    of what :class:`repro.session.PreparedQuery` amortizes.  The returned
    indices address ``[a for a in query.atoms if not a.is_vacuum]`` and can be
    passed back to :func:`evaluate_columnar` via ``order=``.
    """
    non_vacuum = [a for a in query.atoms if not a.is_vacuum]
    if not non_vacuum:
        return ()
    return tuple(
        _join_order(ConjunctiveQuery(query.head, tuple(non_vacuum), name=query.name))
    )


def join_order_steps(query: ConjunctiveQuery) -> List[Dict[str, object]]:
    """The join order as JSON-safe records with per-step tie-break rationale.

    Same traversal as :func:`join_order_plan` (both delegate to the one
    greedy implementation), enriched for EXPLAIN: each record names the atom,
    the candidate set the greedy step chose from, the shared attributes that
    drove the choice, and the reason.  Indices address the non-vacuum atoms,
    matching :func:`join_order_plan`.
    """
    non_vacuum = [a for a in query.atoms if not a.is_vacuum]
    if not non_vacuum:
        return []
    sub = ConjunctiveQuery(query.head, tuple(non_vacuum), name=query.name)
    records: List[Dict[str, object]] = []
    for position, (index, candidates, overlap, reason) in enumerate(
        _join_order_steps(sub)
    ):
        atom = non_vacuum[index]
        records.append(
            {
                "position": position,
                "atom_index": index,
                "atom": str(atom),
                "relation": atom.name,
                "shared": overlap,
                "candidates": list(candidates),
                "reason": reason,
            }
        )
    return records


class EngineContext:
    """Evaluation state owned by one session: cache, backend, interners.

    An ``EngineContext`` bundles

    * the array **backend** every evaluation of this context uses,
    * an :class:`~repro.engine.cache.EvaluationCache` (per-context, so one
      tenant's evictions never touch another's) and, beside it, a
      :class:`~repro.engine.cache.CurveCache` of solver cost curves (filled
      and read by the session's solve paths),
    * the **interning tables**: one :class:`RelationIndex` per
      ``(relation, version)``, shared across every evaluation this context
      runs (and by every cached result), so repeated queries over the same
      relation do not re-intern its tuples, and
    * the **join counter** :attr:`evaluations`, bumped under the context
      lock so concurrent readers of one session count every join.

    :class:`repro.session.Session` owns one context per session.

    Lazy builds (the interning tables here, the postings index on
    :class:`~repro.engine.columnar.QueryResult`) are lock-guarded, so
    concurrent threads sharing one context never duplicate an interning pass
    or observe a half-built index.
    """

    __slots__ = (
        "cache",
        "curves",
        "backend",
        "_interners",
        "evaluations",
        "_lock",
    )

    def __init__(
        self,
        cache: Optional[EvaluationCache] = None,
        backend: BackendLike = "auto",
    ) -> None:
        #: The array backend every evaluation of this context uses (see
        #: :mod:`repro.engine.backend`).  ``"auto"`` resolves to NumPy when
        #: installed, pure Python otherwise; results are byte-identical
        #: either way.
        self.backend = resolve_backend(backend)
        self.cache = cache if cache is not None else EvaluationCache()
        self.curves = CurveCache()
        self._interners: "weakref.WeakKeyDictionary[Relation, Tuple[int, RelationIndex]]" = (
            weakref.WeakKeyDictionary()
        )
        #: How many joins this context actually ran (cache hits excluded).
        self.evaluations = 0
        self._lock = threading.RLock()

    def release(self) -> None:
        """Drop caches and interning tables (session close)."""
        self.cache.clear()
        self.curves.clear()
        with self._lock:
            self._interners = weakref.WeakKeyDictionary()

    def interned(self, relation: Relation) -> RelationIndex:
        """The :class:`RelationIndex` for the relation's *current* version.

        Session mutations publish each successor table through
        :meth:`seed_index`, so this interns from scratch only when the
        relation was never interned here or its version moved outside the
        session.  Guarded by the context lock: concurrent threads share one
        interning pass.
        """
        with self._lock:
            index = self.current_index(relation)
            if index is None:
                index = RelationIndex(relation)
                self.seed_index(relation, index)
            return index

    def current_index(self, relation: Relation) -> Optional[RelationIndex]:
        """The table held for the relation's current version, if any."""
        with self._lock:
            entry = self._interners.get(relation)
            if entry is not None and entry[0] == relation.version:
                return entry[1]
            return None

    def seed_index(self, relation: Relation, index: RelationIndex) -> None:
        """Install ``index`` as the table of the relation's current version.

        ``Session.apply_deletions``/``apply_insertions`` derive the next
        table from the current one (bits cleared, rows appended or revived)
        and publish it here, and recovery seeds the tables it rebuilt from
        the snapshot, so a session holds one table per relation version and
        later evaluations never re-intern a relation the session mutated.
        """
        with self._lock:
            try:
                self._interners[relation] = (relation.version, index)
            except TypeError:  # pragma: no cover - non-weakref-able relation stub
                pass

    def evaluate(
        self,
        query: ConjunctiveQuery,
        database: Database,
        max_witnesses: Optional[int] = None,
        use_cache: bool = True,
        order: Optional[Sequence[int]] = None,
        query_key: Optional[Hashable] = None,
    ) -> QueryResult:
        """Evaluate ``query`` over ``database`` with witness provenance.

        ``database`` must contain every relation the query mentions (extra
        attributes in stored relations are allowed -- the atom's attributes
        are looked up by name).  ``max_witnesses`` is a safety valve: raise
        ``RuntimeError`` if the join exceeds that many full-join rows
        (bounded evaluations bypass the cache).  ``use_cache`` memoizes the
        result keyed by (query canonical form, database version); cached
        results are shared -- treat them as immutable.  ``order`` and
        ``query_key`` let a :class:`~repro.session.PreparedQuery` supply its
        precomputed join plan and canonical cache key.

        Returns output rows (distinct, ordered deterministically) plus packed
        witness provenance, with ``witness_outputs[i]`` the output row index
        produced by witness ``i``.
        """
        cacheable = use_cache and max_witnesses is None
        backend_tag = self.backend.name
        with span("engine.evaluate") as esp:
            if esp:
                esp.set(backend=backend_tag)
            if cacheable:
                cached = self.cache.lookup(
                    query, database, query_key=query_key, backend=backend_tag
                )
                if cached is not None:
                    if esp:
                        esp.set(
                            op="evaluate",
                            cache="hit",
                            witnesses=cached.witness_count(),
                            outputs=cached.output_count(),
                        )
                    return cached
            result = evaluate_columnar(
                query,
                database,
                max_witnesses,
                order=order,
                index_for=self.interned,
                backend=self.backend,
            )
            with self._lock:
                self.evaluations += 1
            if cacheable:
                self.cache.store(
                    query, database, result, query_key=query_key, backend=backend_tag
                )
            if esp:
                esp.set(
                    op="evaluate",
                    cache="miss" if cacheable else "bypass",
                    witnesses=result.witness_count(),
                    outputs=result.output_count(),
                )
            return result


#: The context evaluations route through when a session is active.  Session
#: methods install their context here (contextvars make this safe under
#: threads and asyncio).
_ACTIVE_CONTEXT: "ContextVar[Optional[EngineContext]]" = ContextVar(
    "repro_engine_context", default=None
)


@contextmanager
def use_context(context: EngineContext) -> "Iterator[EngineContext]":
    """Make ``context`` the ambient engine context within the ``with`` block."""
    token = _ACTIVE_CONTEXT.set(context)
    try:
        yield context
    finally:
        _ACTIVE_CONTEXT.reset(token)


def active_context() -> Optional[EngineContext]:
    """The ambient engine context, or ``None`` outside any session scope."""
    return _ACTIVE_CONTEXT.get()


def evaluate_in_context(
    query: ConjunctiveQuery,
    database: Database,
    max_witnesses: Optional[int] = None,
    use_cache: bool = True,
) -> QueryResult:
    """Evaluate through the ambient context (the library-internal entry point).

    Inside ``Session.solve`` / ``Session.evaluate`` this is the session's own
    context (its cache, its backend, its interners) -- including for the
    sub-instances the Universe/Decompose recursions build.  Outside any
    session it evaluates through a fresh :class:`EngineContext`.
    """
    context = _ACTIVE_CONTEXT.get()
    if context is None:
        context = EngineContext()
    return context.evaluate(query, database, max_witnesses, use_cache)


def _factorize_outputs_numpy(
    backend: NumpyBackend,
    head: Sequence[str],
    ordered_atoms: "Sequence[Atom]",
    bound: Dict[str, Column],
    ref_columns: Sequence[Column],
    indexes: Sequence[RelationIndex],
) -> Tuple[Column, List[Row]]:
    """First-occurrence output factorization over interned value codes.

    In a self-join-free natural join every head attribute's value is a
    function of the tid of the *binding* atom (the first atom in join order
    containing it).  Each binding relation's attribute values are interned
    into dense integer codes (Python-equality interning, cached on the
    :class:`~repro.engine.columnar.RelationIndex`), so two witnesses
    produce the same output row **iff** their mixed-radix code words are
    equal -- the whole distinct-output computation collapses to one
    :func:`~repro.engine.backend.factorize_codes` call, with no per-witness
    Python work and no object-tuple hashing at all.  Output IDs are assigned in
    first-witness order, reproducing the Python loop's output order and
    witness->output column exactly.

    Returns ``(packed witness_outputs, output_rows)``; the reverse
    ``output_index`` is left to the provenance's lazy derivation.
    """
    witness_codes = []  # (per-witness value-code column, radix) per head attr
    for attribute in head:
        for position, atom in enumerate(ordered_atoms):
            if attribute in atom.attribute_set:
                rindex = indexes[position]
                codes, radix = rindex.value_codes(
                    rindex.attributes.index(attribute), backend
                )
                witness_codes.append((codes[ref_columns[position]], radix))
                break
    # Distinct codes are distinct rows, so the output id of a group is its
    # rank by first witness; rows come from one gather per head column.
    output_ids, firsts = rank_first_occurrence(*factorize_codes(witness_codes))
    output_rows: List[Row] = list(zip(*(bound[a].take(firsts) for a in head)))
    return output_ids, output_rows


def evaluate_columnar(
    query: ConjunctiveQuery,
    database: Database,
    max_witnesses: Optional[int] = None,
    order: Optional[Sequence[int]] = None,
    index_for: Optional[IndexSupplier] = None,
    backend: Optional[Backend] = None,
) -> QueryResult:
    """The columnar engine: one uncached evaluation.

    ``order`` is an optional precomputed join order over the non-vacuum atoms
    (what :class:`repro.session.PreparedQuery` stores); ``index_for`` lets a
    context supply cached interning tables; ``backend`` selects the array
    kernels (``None`` keeps the pure-Python parity oracle -- results are
    byte-identical across backends either way).
    """
    database.validate_against(query)
    backend = backend if backend is not None else python_backend()

    # Vacuum relations participate as a boolean guard: an empty vacuum
    # relation kills the whole result; a non-empty one contributes the empty
    # tuple to every witness.
    non_vacuum = [a for a in query.atoms if not a.is_vacuum]
    vacuum_refs: List[TupleRef] = []
    for atom in query.atoms:
        if atom.is_vacuum:
            if len(database.relation(atom.name)) == 0:
                return empty_result(
                    query, non_vacuum, database, index_for=index_for, backend=backend
                )
            vacuum_refs.append(TupleRef(atom.name, ()))

    if not non_vacuum:
        # Purely boolean query over vacuum relations: single empty answer.
        return QueryResult(query, (), [], [], [0], [()], {(): 0}, tuple(vacuum_refs))

    if order is None:
        order = _join_order(
            ConjunctiveQuery(query.head, tuple(non_vacuum), name=query.name)
        )
    ordered_atoms = [non_vacuum[i] for i in order]

    # The auto-selected NumPy backend applies a cost-model floor: below
    # MIN_VECTOR_TUPLES input tuples the fixed per-kernel overhead beats the
    # vectorization win, so the evaluation silently routes to the Python
    # kernels (results are byte-identical either way).
    total_tuples = sum(len(database.relation(atom.name)) for atom in non_vacuum)
    requested_backend = backend
    backend = gated_backend(requested_backend, total_tuples)

    with span("engine.join") as jsp:
        build = index_for or RelationIndex
        indexes = [build(database.relation(atom.name)) for atom in ordered_atoms]
        bound, ref_columns = join_columns(
            ordered_atoms, indexes, query.head, max_witnesses, query.name,
            backend=backend,
        )
        if jsp:
            jsp.set(
                op="backend",
                requested=requested_backend.name,
                effective=backend.name,
                gated=bool(getattr(requested_backend, "gated", False)),
                total_tuples=total_tuples,
                min_vector_tuples=MIN_VECTOR_TUPLES,
                demoted=backend is not requested_backend,
            )
    atom_names = tuple(atom.name for atom in ordered_atoms)
    count = len(ref_columns[0]) if ref_columns else 0

    if count == 0:
        return QueryResult(
            query, atom_names, indexes, ref_columns, backend.empty_ids(), [],
            {}, tuple(vacuum_refs),
        )

    head = query.head
    output_rows: List[Row] = []
    output_index: Optional[Dict[Row, int]] = {}
    packed_outputs: Column
    with span("engine.factorize") as fsp:
        if head and backend.is_numpy:
            # Vectorized first-occurrence factorization over interned value
            # codes: no per-witness Python work, no object-tuple hashing.  The
            # reverse output_index is derived lazily by the provenance.
            packed_outputs, output_rows = _factorize_outputs_numpy(
                backend, head, ordered_atoms, bound, ref_columns, indexes
            )
            output_index = None
        elif head:
            # First-occurrence factorization of output rows.  Rows are tuples
            # of arbitrary Python objects, so this dict loop stays Python;
            # on the Python backend its list is the packed column.
            out_columns = [bound[a] for a in head]
            get = output_index.get
            witness_outputs: List[int] = []
            for row in zip(*out_columns):
                index = get(row)
                if index is None:
                    index = len(output_rows)
                    output_index[row] = index
                    output_rows.append(row)
                witness_outputs.append(index)
            packed_outputs = witness_outputs
        else:
            output_rows = [()]
            output_index = {(): 0}
            packed_outputs = backend.id_column([0] * count)
        if fsp:
            fsp.set(
                op="factorize",
                witnesses=count,
                outputs=len(output_rows),
                dedup_ratio=round(count / len(output_rows), 4)
                if output_rows
                else 0.0,
            )

    return QueryResult(
        query, atom_names, indexes, ref_columns, packed_outputs, output_rows,
        output_index, tuple(vacuum_refs),
    )


def output_size(query: ConjunctiveQuery, database: Database) -> int:
    """``|Q(D)|`` without materializing row-style witnesses (wrapper)."""
    return evaluate_in_context(query, database).output_count()
