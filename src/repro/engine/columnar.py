"""Columnar witness-provenance core.

The row-at-a-time evaluator materialized one assignment ``dict`` and one
``Witness`` object per full-join row; profiling showed that allocation (and
the ``TupleRef`` hashing it forces on every consumer) dominated the
Figure 12--16 benchmarks.  This module is the batch-oriented replacement:

* :class:`RelationIndex` interns every stored tuple of a relation into a
  dense integer ID (``tid``), so the join and all provenance bookkeeping can
  work on plain ``int`` columns, and records which tids the relation still
  stores (its live mask).  Its derived views are lazy; on the NumPy
  backend the join's build side (hash groups) is derived from the dense
  value codes with ``bincount``/``argsort`` instead of Python bucketing, and
  the per-row ``TupleRef`` view is built only for callers that need every
  row as a reference (a greedy solve never does);
* :func:`join_columns` runs the left-deep hash join one *atom* at a time over
  whole columns: the intermediate state is a set of parallel Python lists
  (one value column per still-needed attribute, one ``tid`` column per joined
  atom) and each join step is a build/probe pass plus C-speed list gathers --
  no per-row dicts, no per-row ``Witness`` objects;
* :class:`QueryResult` is the packed result of one evaluation: provenance is
  the set of per-atom ``tid`` columns (witness ``w`` used tuple
  ``ref_columns[a][w]`` of atom ``a``), factorized per output via
  ``witness_outputs``.  The solver hot paths (greedy, singleton, brute
  force, Theorem 5's approximations, the Boolean min-cut) read the packed
  columns directly; row-style :class:`Witness` objects are materialized
  only when a caller iterates ``result.witnesses``.
"""

from __future__ import annotations

import threading
from itertools import compress, repeat
from operator import itemgetter
from typing import (
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
    cast,
)

from repro.data.database import Database
from repro.data.relation import Relation, Row, TupleRef
from repro.engine.backend import (
    Backend,
    Column,
    CsrPostings,
    Postings,
    as_id_list,
    backend_of_column,
    factorize_codes,
    group_positions,
    is_ndarray,
    python_backend,
    rank_first_occurrence,
)
from repro.obs.stats import join_step_record
from repro.obs.trace import span
from repro.query.atoms import Atom
from repro.query.cq import ConjunctiveQuery


class RelationIndex:
    """Dense integer interning of one relation's tuples, with row liveness.

    ``rows[tid]`` is the interned row for tuple ID ``tid``; ``ids`` maps a
    row back to its ID.  IDs follow the relation's iteration order (its
    insertion order) at build time, which keeps the columnar join's witness
    order identical to the row engine's (both walk the rows in that order).

    The table is also the relation's liveness record: ``live[tid]`` is 1
    iff the row is stored in this version of the relation, and
    ``dead_count`` counts the cleared bits.  Tids are never renumbered, so
    a deletion clears bits on a successor table (:meth:`without`) that
    shares ``rows``/``ids`` with its parent, and an insertion appends or
    revives rows (:meth:`extended`); packed provenance columns keep
    indexing either version verbatim.  The join, the hash groups and every
    size it reports see live tids only.

    Indexes are immutable snapshots: a :class:`~repro.session.Session` (via
    its :class:`~repro.engine.evaluate.EngineContext`) holds one per
    relation version, so repeated evaluations over the same relation share
    one interning table instead of re-interning per query.  Derived views --
    the ``TupleRef`` view, per-attribute value columns and value codes,
    per-key hash groups, the ``repr`` rank -- are built lazily and cached
    here for the same reason; racing lazy builders compute identical
    values, so the last assignment winning is benign (the thread-safety
    contract documented on ``repro.session``).
    """

    __slots__ = (
        "name",
        "attributes",
        "rows",
        "ids",
        "live",
        "dead_count",
        "_ref_view",
        "_value_columns",
        "_value_codes",
        "_hash_groups",
        "_repr_rank",
    )

    def __init__(self, relation: Relation) -> None:
        rows, ids = relation.numbering()
        self._fill(relation.name, relation.attributes, rows, ids, bytearray(b"\x01") * len(rows))

    def _fill(
        self,
        name: str,
        attributes: Tuple[str, ...],
        rows: List[Row],
        ids: Dict[Row, int],
        live: bytearray,
    ) -> None:
        """Bind the table's columns; every derived view starts empty."""
        self.name = name
        self.attributes = attributes
        self.rows = rows
        self.ids = ids
        self.live = live
        self.dead_count = live.count(0)
        self._ref_view: Optional[List[TupleRef]] = None
        self._value_columns: Dict[int, object] = {}
        self._value_codes: Dict[int, Tuple[Column, Dict[object, int]]] = {}
        self._hash_groups: Dict[tuple, object] = {}
        self._repr_rank: Dict[str, Column] = {}

    def _successor(
        self, rows: List[Row], ids: Dict[Row, int], live: bytearray
    ) -> "RelationIndex":
        """The next version of this table.  Row-derived views index tids,
        not liveness, so they are shared while ``rows`` is; hash groups
        never are."""
        index = RelationIndex.__new__(RelationIndex)
        index._fill(self.name, self.attributes, rows, ids, live)
        if rows is self.rows:
            index._ref_view = self._ref_view
            index._value_columns = self._value_columns
            index._value_codes = self._value_codes
            index._repr_rank = self._repr_rank
        return index

    def extended(self, new_rows: Iterable[Row]) -> "RelationIndex":
        """The successor table with ``new_rows`` stored.

        The append invariant of incremental insertion: every tid keeps its
        meaning (packed provenance columns referring to it stay valid
        verbatim), a dead row revives under its old tid, and a genuinely
        new row is interned at ``len(self)``, ``len(self) + 1``, ...  Live
        rows (and repeats within the batch) are skipped, so extending is
        idempotent.  Appending copies ``rows``/``ids``; a revival-only
        batch shares them.
        """
        rows, ids = self.rows, self.ids
        live = bytearray(self.live)
        for row in new_rows:
            stored = tuple(row)
            tid = ids.get(stored)
            if tid is None:
                if rows is self.rows:
                    rows, ids = list(rows), dict(ids)
                ids[stored] = len(rows)
                rows.append(stored)
                live.append(1)
            else:
                live[tid] = 1
        return self._successor(rows, ids, live)

    def without(self, removed_rows: Iterable[Row]) -> "RelationIndex":
        """The successor table with ``removed_rows`` dead (``self`` if none
        was live): bits cleared on a copy of the mask, ``rows``/``ids``
        shared with this table."""
        live = self.live
        ids_get = self.ids.get
        for row in removed_rows:
            tid = ids_get(tuple(row))
            if tid is not None and live[tid]:
                if live is self.live:
                    live = bytearray(live)
                live[tid] = 0
        return self if live is self.live else self._successor(self.rows, self.ids, live)

    def only(self, rows: Iterable[Row]) -> "RelationIndex":
        """The successor table storing just ``rows`` (each interned here):
        the seed ``Δ_p`` of an insertion delta join.  ``rows``/``ids`` and
        the row-derived views are shared with this table."""
        live = bytearray(len(self.rows))
        ids = self.ids
        for row in rows:
            live[ids[row]] = 1
        return self._successor(self.rows, ids, live)

    @classmethod
    def from_rows(
        cls,
        name: str,
        attributes: Tuple[str, ...],
        rows: Iterable[Row],
        dead_tids: Iterable[int] = (),
    ) -> "RelationIndex":
        """An interning table with ``rows`` interned in the given order.

        The snapshot loader (:mod:`repro.storage`) persists a relation's
        table -- rows in interned order plus its dead tids -- precisely so
        recovery can rebuild the same ``tid`` assignment and liveness here:
        a table carried across mutations revives a deleted row under its old
        tid, so its order is not the relation's insertion order, and packed
        provenance columns written to disk refer to tids and therefore pin
        this order.  Seeding the rebuilt index into an
        :class:`~repro.engine.evaluate.EngineContext` makes post-recovery
        evaluations byte-identical to the pre-crash ones.
        Duplicate rows are skipped (first occurrence wins), matching
        :meth:`extended`; out-of-range dead tids are ignored.
        """
        ordered: List[Row] = list(map(tuple, rows))
        ids: Dict[Row, int] = dict(zip(ordered, range(len(ordered))))
        if len(ids) != len(ordered):
            # Duplicates: ``dict(zip(...))`` kept each row's last tid.
            ordered = list(dict.fromkeys(ordered))
            ids = dict(zip(ordered, range(len(ordered))))
        live = bytearray(b"\x01") * len(ordered)
        for tid in dead_tids:
            if 0 <= tid < len(live):
                live[tid] = 0
        index = cls.__new__(cls)
        index._fill(name, tuple(attributes), ordered, ids, live)
        return index

    @property
    def live_count(self) -> int:
        """How many rows this version of the relation stores."""
        return len(self.rows) - self.dead_count

    def live_tids(self, backend: Backend) -> Column:
        """The live tids, ascending, as a backend ID column (``id_range``
        when no row is dead)."""
        if not self.dead_count:
            return backend.id_range(len(self.rows))
        if backend.is_numpy:
            np = backend.np
            return np.flatnonzero(np.frombuffer(self.live, dtype=np.bool_))
        if self.live_count * 16 < len(self.rows):
            # Sparse mask (an insertion's seed table): ``find`` skips dead
            # runs at memchr speed, where ``compress`` makes an int per row.
            # One ``find`` hop costs about 13 ``compress`` steps, hence the
            # 1/16 cut; 500 live tids of 66k take 0.2 ms against 2.2 ms
            # (2-vCPU host, CPython 3.11).
            tids: List[int] = []
            find = self.live.find
            tid = find(1)
            while tid != -1:
                tids.append(tid)
                tid = find(1, tid + 1)
            return tids
        return list(compress(range(len(self.rows)), self.live))

    def ref_view(self) -> List[TupleRef]:
        """``tid -> TupleRef`` view, built lazily and cached on the index.

        Caching here (rather than per :class:`QueryResult`) lets every
        evaluation sharing this interning table reuse one materialized view.
        Treat the returned list as read-only.
        """
        view = self._ref_view
        if view is None:
            name = self.name
            view = [TupleRef(name, row) for row in self.rows]
            self._ref_view = view
        return view

    def value_column(self, position: int, backend: Backend) -> Column:
        """The ``tid -> value`` column of one attribute, as a backend column.

        NumPy sessions gather new value columns with ``take`` over a
        ``dtype=object`` array (the elements stay the original Python
        objects, so downstream output rows are bit-for-bit unchanged);
        building that array once per (relation version, attribute) and
        caching it here amortizes it across every evaluation sharing this
        interning table.
        """
        column = self._value_columns.get(position)
        if column is None:
            column = backend.object_column([row[position] for row in self.rows])
            self._value_columns[position] = column
        return column

    def value_codes(self, position: int, backend: Backend) -> Tuple[Column, int]:
        """``(codes, radix)``: dense value interning of one attribute.

        ``codes[tid]`` is the dense ID of ``rows[tid][position]``'s *value*
        (IDs in first-occurrence order, assigned by Python-equality
        interning, so ``1``/``1.0``/``True`` share an ID exactly as they
        join); ``radix`` is the number of distinct values.  The NumPy
        engine's output factorization groups witnesses by these integer
        codes instead of hashing object tuples per witness.  Cached per
        attribute for the lifetime of the (immutable) index.
        """
        codes, interned = self._interned_values(position, backend)
        return codes, max(len(interned), 1)

    def _interned_values(self, position: int, backend: Backend) -> Tuple[Column, Dict[object, int]]:
        """``(codes, interned)`` behind :meth:`value_codes`, plus the
        ``value -> code`` dict (first-occurrence key objects, code order).

        Interning runs at C speed: ``dict.fromkeys`` dedups the values in
        first-occurrence order and ``map(interned.__getitem__)`` encodes
        them, with no per-row Python frame.
        """
        entry = self._value_codes.get(position)
        if entry is None:
            np = backend.np
            values = [row[position] for row in self.rows]
            distinct = dict.fromkeys(values)
            interned = dict(zip(distinct, range(len(distinct))))
            codes = np.fromiter(
                map(interned.__getitem__, values), np.int64, count=len(values)
            )
            entry = (codes, interned)
            self._value_codes[position] = entry
        return entry

    def repr_rank(self, backend: Backend) -> Column:
        """``rank[tid]``: the tid's position when rows are sorted by ``repr``.

        The key is ``repr(value)`` for a one-attribute relation and
        ``repr(row)`` otherwise -- the deterministic tie-break the Singleton
        curve orders equal profits by (equal reprs fall back to tid order).
        Appended tids land anywhere in this order, so it is recomputed per
        index rather than extended.  Cached per backend.
        """
        rank = self._repr_rank.get(backend.name)
        if rank is None:
            rows = self.rows
            if len(self.attributes) == 1:
                keys = [repr(row[0]) for row in rows]
            else:
                keys = [repr(row) for row in rows]
            ranks = [0] * len(rows)
            by_repr = sorted(range(len(rows)), key=keys.__getitem__)
            for position, tid in enumerate(by_repr):
                ranks[tid] = position
            rank = backend.id_column(ranks)
            self._repr_rank[backend.name] = rank
        return rank

    def hash_groups(self, positions: Tuple[int, ...], backend: Backend) -> object:
        """The build side of one hash-join step, cached per key attributes.

        For the Python backend: ``{key: [tids]}`` over the live tids, tids
        ascending (the exact table the probe loop walks).  For the NumPy
        backend the same grouping as ``(table, groups)``: ``table`` maps a
        key value to its group id and ``groups`` is a
        :class:`~repro.engine.backend.CsrPostings` whose row ``gid`` lists
        the group's tids in ascending order -- what the vectorized probe
        expands with ``repeat``/``gather``.  A key only dead rows carry has
        no group.
        """
        cache_key = (backend.name, positions)
        groups = self._hash_groups.get(cache_key)
        if groups is not None:
            return groups
        if backend.is_numpy:
            groups = self._hash_groups_numpy(positions, backend)
        else:
            rows = self.rows
            tids: Iterable[int] = range(len(rows))
            if self.dead_count:
                tids = self.live_tids(backend)
                rows = [rows[tid] for tid in tids]
            if len(positions) == 1:
                p = positions[0]
                keys = (row[p] for row in rows)
            else:
                keys = (tuple(row[p] for p in positions) for row in rows)
            lists: Dict[object, List[int]] = {}
            setdefault = lists.setdefault
            for tid, key in zip(tids, keys):
                setdefault(key, []).append(tid)
            groups = lists
        self._hash_groups[cache_key] = groups
        return groups

    def _hash_groups_numpy(
        self, positions: Tuple[int, ...], backend: Backend
    ) -> Tuple[Dict[object, int], CsrPostings]:
        """CSR hash groups derived from the attributes' value codes.

        A group id is a key's rank by first live occurrence -- exactly the
        dict-of-lists order -- so with every row live, one-attribute groups
        *are* the value codes and the interning dict is the table.
        Otherwise the attributes' codes (of the live tids) go through
        :func:`~repro.engine.backend.factorize_codes`, ranked by first
        occurrence; only distinct keys become Python tuples.  The groups'
        CSR lists positions among the live tids, mapped back to tids.
        """
        members = self.live_tids(backend) if self.dead_count else None
        if len(positions) == 1 and members is None:
            gids, table = self._interned_values(positions[0], backend)
        else:
            columns = []
            for p in positions:
                codes, interned = self._interned_values(p, backend)
                if members is not None:
                    codes = codes[members]
                columns.append((codes, max(len(interned), 1)))
            gids, firsts = rank_first_occurrence(*factorize_codes(columns))
            if members is not None:
                firsts = members[firsts]
            keys = map(
                itemgetter(*positions), map(self.rows.__getitem__, firsts.tolist())
            )
            table = dict(zip(keys, range(firsts.size)))
        groups = CsrPostings.from_column(gids)
        if members is not None:
            groups = CsrPostings(members[groups.order], groups.offsets)
        return table, groups

    def __len__(self) -> int:
        return len(self.rows)


class Witness:
    """One full-join row: one input tuple per non-vacuum atom of the query.

    ``refs`` is ordered consistently with the join order chosen by the
    engine; use :meth:`as_dict` for name-based access.  Witnesses are plain
    views: the engine keeps provenance packed as integer columns and only
    builds these objects when a caller iterates ``QueryResult.witnesses``.
    """

    __slots__ = ("refs",)

    def __init__(self, refs: Tuple[TupleRef, ...]) -> None:
        self.refs = refs

    def as_dict(self) -> Dict[str, TupleRef]:
        """The witness as ``{relation name: tuple reference}``."""
        return {ref.relation: ref for ref in self.refs}

    def uses(self, ref: TupleRef) -> bool:
        """Whether this witness contains the given input tuple."""
        return ref in self.refs

    def __iter__(self) -> Iterator[TupleRef]:
        return iter(self.refs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Witness) and self.refs == other.refs

    def __hash__(self) -> int:
        return hash(self.refs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Witness(refs={self.refs!r})"


class QueryResult:
    """The result of evaluating a CQ: its answers with packed provenance.

    Attributes
    ----------
    query:
        The evaluated query.
    atom_names:
        Relation names of the non-vacuum atoms in join order.
    indexes:
        One :class:`RelationIndex` per entry of ``atom_names``.
    ref_columns:
        One ``tid`` column per entry of ``atom_names``; all columns have
        length ``witness_count()`` and ``ref_columns[a][w]`` is the input
        tuple of atom ``a`` used by witness ``w``.
    witness_outputs:
        ``witness_outputs[w]`` is the index (into ``output_rows``) of the
        output tuple witness ``w`` produces: the packed column itself, a
        list on the Python backend and an ``int64`` ndarray on NumPy.
    output_rows, output_index:
        The distinct output tuples in first-witness order and their reverse
        index (the index is derived lazily from ``output_rows`` when not
        supplied).
    vacuum_refs:
        References to the (empty) tuples of non-empty vacuum relations; by
        convention they participate in *every* witness.
    postings:
        Per atom, postings already derived for ``ref_columns`` (a migrated
        result inherits its parent's); ``None`` slots are built lazily.

    Cached results are shared across callers: treat them as immutable.
    """

    __slots__ = (
        "query",
        "atom_names",
        "indexes",
        "ref_columns",
        "witness_outputs",
        "output_rows",
        "vacuum_refs",
        "_output_index",
        "_atom_position",
        "_postings",
        "_postings_lock",
        "_witnesses",
    )

    def __init__(
        self,
        query: ConjunctiveQuery,
        atom_names: Tuple[str, ...],
        indexes: Sequence[RelationIndex],
        ref_columns: Sequence[Column],
        witness_outputs: Column,
        output_rows: List[Row],
        output_index: Optional[Dict[Row, int]] = None,
        vacuum_refs: Tuple[TupleRef, ...] = (),
        postings: Optional[Sequence[Optional[Postings]]] = None,
    ) -> None:
        self.query = query
        self.atom_names = atom_names
        self.indexes: List[RelationIndex] = list(indexes)
        self.ref_columns: List[Column] = list(ref_columns)
        self.witness_outputs = witness_outputs
        self.output_rows = output_rows
        self._output_index = output_index if output_index else None
        self.vacuum_refs = vacuum_refs
        self._atom_position: Dict[str, int] = {
            name: position for position, name in enumerate(atom_names)
        }
        self._postings: List[Optional[Postings]] = (
            list(postings) if postings is not None else [None] * len(atom_names)
        )
        #: Guards the lazy postings builds: concurrent ``what_if``/delta
        #: callers sharing one (immutable) result must not duplicate the
        #: O(witnesses) inversion scan or observe a half-built index.
        self._postings_lock = threading.Lock()
        self._witnesses: Optional[List[Witness]] = None

    @property
    def output_index(self) -> Dict[Row, int]:
        """``output row -> position`` reverse index (built lazily)."""
        index = self._output_index
        if index is None:
            index = {row: i for i, row in enumerate(self.output_rows)}
            self._output_index = index
        return index

    @property
    def witnesses(self) -> List[Witness]:
        """One :class:`Witness` per full-join row (materialized on demand)."""
        if self._witnesses is None:
            vacuum = self.vacuum_refs
            if not self.atom_names:
                self._witnesses = [Witness(vacuum) for _ in range(self.witness_count())]
            else:
                pairs = [
                    (self.refs_for_atom(a), as_id_list(column))
                    for a, column in enumerate(self.ref_columns)
                ]
                self._witnesses = [
                    Witness(tuple(view[column[w]] for view, column in pairs) + vacuum)
                    for w in range(self.witness_count())
                ]
        return self._witnesses

    # ------------------------------------------------------------------ #
    # Counting
    # ------------------------------------------------------------------ #
    def witness_count(self) -> int:
        """The number of full-join rows."""
        return len(self.witness_outputs)

    def output_count(self) -> int:
        """``|Q(D)|``: the number of distinct output tuples."""
        return len(self.output_rows)

    def atom_count(self) -> int:
        """The number of non-vacuum atoms (= packed provenance columns)."""
        return len(self.atom_names)

    # ------------------------------------------------------------------ #
    # ID <-> TupleRef translation
    # ------------------------------------------------------------------ #
    def atom_position(self, relation_name: str) -> Optional[int]:
        """The column position of a relation (``None`` for vacuum/unknown)."""
        return self._atom_position.get(relation_name)

    def refs_for_atom(self, position: int) -> List[TupleRef]:
        """``tid -> TupleRef`` view for one atom (cached on the interner)."""
        return self.indexes[position].ref_view()

    def postings_for_atom(self, position: int) -> Postings:
        """``tid -> sorted witness positions`` for one atom (lazy, cached).

        The inverted form of ``ref_columns[position]``: which witnesses use
        each input tuple -- the result's only witness-incidence structure.
        Built on first use and kept for the lifetime of the result (and
        carried to a mutated successor when CSR), so the solver's
        :class:`~repro.engine.provenance.ProvenanceIndex`, verification
        (:meth:`deletion_counts`) and repeated incremental-deletion queries
        (``Session.what_if``) pay for the scan once -- the role indexes play
        on the paper's PostgreSQL connection.  Readers never write it.
        """
        postings = self._postings[position]  # repro: noqa REP003 -- double-checked lazy build: the GIL makes this list-slot read atomic, and the slow path re-reads under the lock before building
        if postings is None:
            with self._postings_lock:
                postings = self._postings[position]
                if postings is None:
                    # Backend-dispatched: one stable argsort + bincount
                    # offsets (CSR) on ndarray columns, the classic
                    # setdefault loop on lists.
                    with span("engine.provenance.postings") as psp:
                        postings = group_positions(self.ref_columns[position])
                        if psp:
                            psp.set(
                                relation=self.atom_names[position],
                                tuples=len(postings),
                            )
                    self._postings[position] = postings
        return postings

    def locate(self, ref: TupleRef) -> Optional[Tuple[int, int]]:
        """``(atom position, tid)`` of a reference, or ``None``.

        ``None`` means the reference points at a vacuum relation, an unknown
        relation, or a row not stored at evaluation time.
        """
        position = self._atom_position.get(ref.relation)
        if position is None:
            return None
        tid = self.indexes[position].ids.get(ref.values)
        if tid is None:
            return None
        return (position, tid)

    # ------------------------------------------------------------------ #
    # Provenance queries over the packed columns
    # ------------------------------------------------------------------ #
    def participating_refs(self) -> Set[TupleRef]:
        """Input tuples participating in at least one witness.

        Includes the vacuum references (they participate in every witness),
        matching the paper's notion of "non-dangling".
        """
        refs: Set[TupleRef] = (
            set(self.vacuum_refs) if len(self.witness_outputs) else set()
        )
        for position, column in enumerate(self.ref_columns):
            view = self.refs_for_atom(position)
            refs.update(view[tid] for tid in distinct_ids(column))
        return refs

    def dead_witnesses(
        self, removed: Iterable[TupleRef]
    ) -> Optional[Union[Set[int], Column]]:
        """Witness positions killed by ``removed``; ``None`` = *all* witnesses.

        ``None`` is the vacuum-deletion case (a removed vacuum tuple guards
        away every witness).  Refs are grouped by relation first so the
        per-ref work is one plain-tuple dict probe (``TupleRef``'s generated
        dataclass hash is Python-level and shows up on large deletion sets);
        located tids are then expanded through the lazy postings index, so
        the collection step costs ``O(|dead witnesses|)``, not
        ``O(|witnesses|)``.  Unknown relations and rows not stored at
        evaluation time kill nothing.

        Returns a ``set`` of positions for list-packed provenance, or a
        sorted, deduplicated ``int64`` ndarray for ndarray-packed provenance
        (one CSR ``gather`` per relation scattered into a hit mask, read
        back with ``flatnonzero``; on NumPy 2.4, 6.7k dead positions of 61k
        take 0.12 ms this way against 1.3 ms through ``np.unique``).  Both
        support ``len``.
        """
        vacuum = set(self.vacuum_refs)
        by_relation: Dict[str, List[Row]] = {}
        for ref in removed:
            if vacuum and ref in vacuum:
                return None
            by_relation.setdefault(ref.relation, []).append(ref.values)

        tids_by_position: List[Tuple[int, List[int]]] = []
        for relation_name, values_list in by_relation.items():
            position = self.atom_position(relation_name)
            if position is None:
                continue
            ids_get = self.indexes[position].ids.get
            tids = [tid for tid in map(ids_get, values_list) if tid is not None]
            if tids:
                tids_by_position.append((position, tids))

        if self.atom_count() and is_ndarray(self.ref_columns[0]):
            np = backend_of_column(self.ref_columns[0]).np
            hit = np.zeros(self.witness_count(), dtype=bool)
            for position, tids in tids_by_position:
                hit[cast(CsrPostings, self.postings_for_atom(position)).gather(tids)] = True
            return np.flatnonzero(hit)
        dead: Set[int] = set()
        for position, tids in tids_by_position:
            postings_get = self.postings_for_atom(position).get
            for tid in tids:
                hits = postings_get(tid)
                if hits is not None:
                    dead.update(hits)
        return dead

    def alive_mask(self, dead: Union[Set[int], Column]) -> Union[bytearray, Column]:
        """A boolean alive mask over the witness positions.

        A NumPy ``bool`` array when ``dead`` is an ndarray (so the
        downstream compressions run as array kernels), a ``bytearray``
        otherwise.
        """
        count = self.witness_count()
        if is_ndarray(dead):
            np = backend_of_column(dead).np
            alive = np.ones(count, dtype=bool)
            alive[dead] = False
            return alive
        alive = bytearray(b"\x01") * count
        for w in dead:
            alive[w] = 0
        return alive

    def deletion_counts(self, removed: Iterable[TupleRef]) -> Tuple[int, int]:
        """``(witnesses removed, outputs removed)`` when ``removed`` is deleted.

        An output dies when every one of its witnesses uses at least one
        removed tuple.  Dead witnesses come from :meth:`dead_witnesses` in
        ``O(|dead|)``; on projection queries one additional C-speed mask
        scan over ``witness_outputs`` counts the surviving outputs.  The
        one counting core behind solver verification
        (:meth:`outputs_removed_by`) and the what-if counts
        (:func:`repro.engine.delta.delta_counts`).
        """
        dead = self.dead_witnesses(removed)
        if dead is None:
            return (self.witness_count(), self.output_count())
        if len(dead) == 0:
            return (0, 0)
        output_count = self.output_count()
        if output_count == self.witness_count():
            # Bijection (no projection sharing): outputs die with their
            # witness.
            return (len(dead), len(dead))
        alive = self.alive_mask(dead)
        if is_ndarray(self.witness_outputs):
            np = backend_of_column(self.witness_outputs).np
            surviving_count = np.count_nonzero(
                np.bincount(self.witness_outputs[alive], minlength=output_count)
            )
            return (len(dead), output_count - int(surviving_count))
        surviving = set(compress(self.witness_outputs, alive))
        return (len(dead), output_count - len(surviving))

    def outputs_removed_by(self, removed: Iterable[TupleRef]) -> int:
        """How many output tuples disappear when ``removed`` is deleted
        (:meth:`deletion_counts`' output count)."""
        return self.deletion_counts(removed)[1]

    def witness_masks_for(self, refs: Sequence[TupleRef]) -> List[int]:
        """Per reference, the witnesses containing it as an arbitrary-precision
        bitmask (bit ``w`` set iff witness ``w`` uses the reference).

        Unknown / dangling references get mask ``0``; vacuum references get
        the all-witnesses mask.  The brute-force solver unions these masks to
        evaluate deletion subsets with word-level parallelism instead of
        per-witness set intersections.
        """
        count = self.witness_count()
        full_mask = (1 << count) - 1
        vacuum = set(self.vacuum_refs)

        wanted: List[Dict[int, int]] = [{} for _ in self.atom_names]
        for ref in refs:
            if ref in vacuum:
                continue
            located = self.locate(ref)
            if located is not None:
                wanted[located[0]][located[1]] = 0
        for position, masks in enumerate(wanted):
            if not masks:
                continue
            # Arbitrary-precision masks need Python ints: an ndarray column
            # is normalized first so `1 << w` can never wrap at 64 bits.
            column = as_id_list(self.ref_columns[position])
            for w, tid in enumerate(column):
                if tid in masks:
                    masks[tid] |= 1 << w

        result: List[int] = []
        for ref in refs:
            if ref in vacuum:
                result.append(full_mask)
                continue
            located = self.locate(ref)
            if located is None:
                result.append(0)
            else:
                result.append(wanted[located[0]].get(located[1], 0))
        return result

    def output_masks(self) -> List[int]:
        """Per output, the bitmask of its witnesses (companion of
        :meth:`witness_masks_for`)."""
        masks = [0] * self.output_count()
        for w, out in enumerate(as_id_list(self.witness_outputs)):
            masks[out] |= 1 << w
        return masks


def distinct_ids(column: Column) -> Collection[int]:
    """The distinct values of one ID column (Python ints either way)."""
    if is_ndarray(column):
        return backend_of_column(column).np.unique(column).tolist()
    return set(column)


#: ``index_for(relation)`` hook: lets an :class:`EngineContext` serve a cached
#: :class:`RelationIndex` for the relation's current version instead of
#: re-interning.  ``None`` means "build a fresh index".
IndexSupplier = Callable[[Relation], RelationIndex]


def empty_result(
    query: ConjunctiveQuery,
    atoms: Sequence[Atom],
    database: Database,
    index_for: Optional[IndexSupplier] = None,
    backend: Optional[Backend] = None,
) -> QueryResult:
    """A result with no witnesses (empty query result)."""
    build = index_for or RelationIndex
    backend = backend or python_backend()
    indexes = [build(database.relation(atom.name)) for atom in atoms]
    return QueryResult(
        query,
        tuple(atom.name for atom in atoms),
        indexes,
        [backend.empty_ids() for _ in atoms],
        backend.empty_ids(),
        [],
        {},
    )


def _probe_gids_numpy(
    backend: Backend,
    rindex: RelationIndex,
    shared: Tuple[str, ...],
    shared_positions: Tuple[int, ...],
    bound: Dict[str, Column],
    ref_columns: List[Column],
    binding: Dict[str, int],
    indexes: Sequence[RelationIndex],
) -> Column:
    """Per-probe-row build-bucket ids for one join step (NumPy backend).

    Key matching uses Python equality exactly like the Python backend, but
    the dict probes run once per *distinct* probe key, not once per row:
    every probe value is a function of the tid of the atom that first bound
    its attribute, so probe rows are grouped by the binding relations'
    interned value codes (:func:`~repro.engine.backend.factorize_codes`,
    unranked: any group order works here), one representative key per group
    is looked up in the build table (``map`` over ``dict.get``: no Python
    frame per key), and the answers are scattered back through the group
    inverse.
    """
    np = backend.np
    table = rindex.hash_groups(shared_positions, backend)[0]
    per_attr = []  # (per-probe-row value-code column, radix)
    for attribute in shared:
        binder = binding[attribute]
        bindex = indexes[binder]
        codes, radix = bindex.value_codes(
            bindex.attributes.index(attribute), backend
        )
        per_attr.append((codes[ref_columns[binder]], radix))
    first_index, inverse = factorize_codes(per_attr)
    if len(shared) == 1:
        representatives: Iterable[object] = bound[shared[0]].take(first_index)
    else:
        representatives = zip(*(bound[a].take(first_index) for a in shared))
    gid_per_group = np.fromiter(
        map(table.get, representatives, repeat(-1)), np.int64, count=first_index.size
    )
    return gid_per_group[inverse]


def _expand_matches_numpy(
    backend: Backend,
    rindex: RelationIndex,
    shared_positions: Tuple[int, ...],
    gids: Column,
) -> Tuple[Column, Column]:
    """Expand per-probe-row bucket ids into ``(selection, tids)``.

    Produces the identical pair the Python probe loop appends row by row:
    probe rows in ascending order, matching tids in build-bucket
    (= ascending tid) order within each probe row -- one ``repeat`` and
    one CSR ``gather``.
    """
    np = backend.np
    groups = rindex.hash_groups(shared_positions, backend)[1]
    offsets = groups.offsets
    matched = np.flatnonzero(gids >= 0)
    matched_gids = gids[matched]
    selection = np.repeat(matched, offsets[matched_gids + 1] - offsets[matched_gids])
    return selection, groups.gather(matched_gids)


def join_columns(
    ordered_atoms: Sequence[Atom],
    indexes: Sequence[RelationIndex],
    keep_attributes: Iterable[str],
    max_witnesses: Optional[int] = None,
    query_name: str = "Q",
    backend: Optional[Backend] = None,
) -> Tuple[Dict[str, List[object]], List[List[int]]]:
    """Left-deep hash join over interned ID columns.

    Parameters
    ----------
    ordered_atoms:
        Non-vacuum atoms in join order (see ``_join_order``).
    indexes:
        One interning table per atom; the join reads its live rows only.
        A fresh evaluation passes each relation's current table, an
        insertion delta term the extended, seed and parent tables of
        ``⋃_p Join(E_<p, Δ_p, O_>p)``.
    keep_attributes:
        Attributes whose value columns must survive to the end (the head);
        all other bound attributes are dropped as soon as no later atom needs
        them, which keeps the per-step gather cost proportional to the number
        of *live* columns.
    max_witnesses:
        Optional guard: raise ``RuntimeError`` when an intermediate result
        exceeds this many rows.
    query_name:
        Used in the ``max_witnesses`` error message.
    backend:
        The array backend (see :mod:`repro.engine.backend`); defaults to the
        pure-Python kernels.  With the NumPy backend, value columns are
        ``dtype=object`` arrays (same Python objects inside) and ``tid``
        columns are ``int64`` arrays; the produced witnesses are
        byte-identical to the Python backend's in every observable way.

    Returns
    -------
    (bound, ref_columns)
        ``bound[attr]`` is the value column of each kept attribute and
        ``ref_columns[a]`` the ``tid`` column of atom ``a``.  All columns
        share the same length (the number of witnesses).
    """
    backend = backend or python_backend()
    vector = backend.is_numpy

    # needed_after[i]: attributes still required by atoms i+1.. or the head.
    needed_after: List[Set[str]] = []
    running: Set[str] = set(keep_attributes)
    for atom in reversed(ordered_atoms):
        needed_after.append(set(running))
        running |= atom.attribute_set
    needed_after.reverse()

    bound: Dict[str, List[object]] = {}
    ref_columns: List[List[int]] = []
    #: attr -> join-order index of the atom that *first* bound it (the value
    #: of the attribute is a function of that atom's tid; both the NumPy
    #: probe and the output factorization key on it).
    binding: Dict[str, int] = {}
    count: Optional[int] = None  # None = the single empty partial row

    for step, (atom, rindex) in enumerate(zip(ordered_atoms, indexes)):
        step_span = span("engine.join.atom")
        with step_span:
            rel_position = {a: rindex.attributes.index(a) for a in atom.attributes}
            shared = [a for a in atom.attributes if a in bound]
            rows = rindex.rows
            needed = needed_after[step]
            probed = rindex.live_count if count is None else count

            if shared:
                shared_positions = tuple(rel_position[a] for a in shared)
                if vector:
                    gids = _probe_gids_numpy(
                        backend, rindex, shared, shared_positions,
                        bound, ref_columns, binding, indexes,
                    )
                    selection, tids = _expand_matches_numpy(
                        backend, rindex, shared_positions, gids
                    )
                    bound = {
                        a: column.take(selection)
                        for a, column in bound.items()
                        if a in needed
                    }
                    ref_columns = [column.take(selection) for column in ref_columns]
                else:
                    # Build: hash the relation on the shared attributes (cached
                    # on the interning table).  Probe: selection vector over the
                    # existing partials plus the matching tid per produced row.
                    if len(shared) == 1:
                        probe_keys: Sequence[object] = bound[shared[0]]
                    else:
                        probe_keys = zip(*(bound[a] for a in shared))
                    table = rindex.hash_groups(shared_positions, backend)
                    selection: List[int] = []
                    tids: List[int] = []
                    get = table.get
                    for i, key in enumerate(probe_keys):
                        matches = get(key)
                        if matches:
                            for tid in matches:
                                selection.append(i)
                                tids.append(tid)
                    bound = {
                        a: [column[i] for i in selection]
                        for a, column in bound.items()
                        if a in needed
                    }
                    ref_columns = [
                        [column[i] for i in selection] for column in ref_columns
                    ]
            elif count is None:
                # First atom (or first of the whole join): every live tuple
                # starts a partial row.
                tids = rindex.live_tids(backend)
            else:
                # Disconnected component: cross product with the partials so far,
                # partial-major: the witness order the row-at-a-time reference
                # evaluator (the parity oracle) produces.
                live = rindex.live_tids(backend)
                if vector:
                    np = backend.np
                    selection = np.repeat(np.arange(count, dtype=np.int64), len(live))
                    tids = np.tile(live, count)
                    bound = {
                        a: column.take(selection)
                        for a, column in bound.items()
                        if a in needed
                    }
                    ref_columns = [column.take(selection) for column in ref_columns]
                else:
                    selection = [i for i in range(count) for _ in live]
                    tids = [tid for _ in range(count) for tid in live]
                    bound = {
                        a: [column[i] for i in selection]
                        for a, column in bound.items()
                        if a in needed
                    }
                    ref_columns = [
                        [column[i] for i in selection] for column in ref_columns
                    ]

            # Materialize the value columns of newly bound attributes that some
            # later atom (or the head) still needs.
            for a in atom.attributes:
                if a not in binding:
                    binding[a] = step
                if a not in shared and a in needed:
                    p = rel_position[a]
                    if vector:
                        bound[a] = rindex.value_column(p, backend).take(tids)
                    else:
                        bound[a] = [rows[tid][p] for tid in tids]
            ref_columns.append(tids)
            count = len(tids)
            if step_span:
                # Build-side bucket sizes for the heavy-hitter summary; the
                # hash table is cached on the interning table, so this
                # re-fetch does no hashing work.
                bucket_sizes = None
                if shared:
                    groups = rindex.hash_groups(shared_positions, backend)
                    if vector:
                        gid_table, csr = groups
                        group_counts = backend.np.diff(csr.offsets)
                        bucket_sizes = (
                            (key, int(group_counts[gid]))
                            for key, gid in gid_table.items()
                        )
                    else:
                        bucket_sizes = (
                            (key, len(members)) for key, members in groups.items()
                        )
                step_span.set(
                    **join_step_record(
                        step, atom.name, rindex.live_count, probed, count, shared,
                        bucket_sizes,
                    )
                )

            if max_witnesses is not None and count > max_witnesses:
                raise RuntimeError(
                    f"join of {query_name} exceeded max_witnesses={max_witnesses}"
                )
            if count == 0:
                # Empty intermediate result: short-circuit with all-empty
                # columns.
                bound = {a: backend.object_column([]) for a in bound}
                ref_columns = [backend.empty_ids() for _ in ordered_atoms]
                break

    if len(ref_columns) < len(ordered_atoms):  # pragma: no cover - break above
        ref_columns.extend(
            backend.empty_ids() for _ in range(len(ordered_atoms) - len(ref_columns))
        )
    return bound, ref_columns
