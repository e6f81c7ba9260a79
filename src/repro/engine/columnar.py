"""Columnar witness-provenance core.

The row-at-a-time evaluator materialized one assignment ``dict`` and one
``Witness`` object per full-join row; profiling showed that allocation (and
the ``TupleRef`` hashing it forces on every consumer) dominated the
Figure 12--16 benchmarks.  This module is the batch-oriented replacement:

* :class:`RelationIndex` interns every stored tuple of a relation into a
  dense integer ID (``tid``), so the join and all provenance bookkeeping can
  work on plain ``int`` columns;
* :func:`join_columns` runs the left-deep hash join one *atom* at a time over
  whole columns: the intermediate state is a set of parallel Python lists
  (one value column per still-needed attribute, one ``tid`` column per joined
  atom) and each join step is a build/probe pass plus C-speed list gathers --
  no per-row dicts, no per-row ``Witness`` objects;
* :class:`ColumnarProvenance` is the packed result: provenance is the set of
  per-atom ``tid`` columns (witness ``w`` used tuple ``ref_columns[a][w]`` of
  atom ``a``), factorized per output via ``witness_outputs``.

``repro.engine.evaluate`` wraps a :class:`ColumnarProvenance` in the familiar
``QueryResult``/``Witness`` API, materializing row-style views only when a
caller actually asks for them; the solver hot paths (greedy, singleton,
brute force, set cover, semi-join reduction) consume the packed columns
directly.
"""

from __future__ import annotations

import threading
from typing import Callable, Collection, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.data.database import Database
from repro.data.relation import Relation, Row, TupleRef
from repro.engine.backend import (
    Backend,
    Column,
    as_id_list,
    backend_of_column,
    group_positions,
    is_ndarray,
    python_backend,
)
from repro.obs.stats import current_collector, join_step_record
from repro.obs.trace import span
from repro.query.atoms import Atom
from repro.query.cq import ConjunctiveQuery


class RelationIndex:
    """Dense integer interning of one relation's tuples.

    ``rows[tid]`` is the stored row for tuple ID ``tid``; ``ids`` maps a row
    back to its ID.  IDs follow the relation's iteration order at build time,
    which keeps the columnar join's witness order identical to the row
    engine's (both walk the same hash-table buckets).

    Indexes are immutable snapshots: a :class:`~repro.session.Session` (via
    its :class:`~repro.engine.evaluate.EngineContext`) caches them per
    relation version, so repeated evaluations over the same relation share
    one interning table instead of re-interning per query.  Derived views --
    the ``TupleRef`` view, per-attribute value columns, per-key hash groups
    -- are built lazily and cached here for the same reason; racing lazy
    builders compute identical values, so the last assignment winning is
    benign (the thread-safety contract documented on ``repro.session``).
    """

    __slots__ = (
        "name",
        "attributes",
        "rows",
        "ids",
        "_ref_view",
        "_value_columns",
        "_value_codes",
        "_hash_groups",
    )

    def __init__(self, relation: Relation) -> None:
        self.name = relation.name
        self.attributes: Tuple[str, ...] = relation.attributes
        self.rows: List[Row] = list(relation)
        self.ids: Dict[Row, int] = {row: tid for tid, row in enumerate(self.rows)}
        self._ref_view: Optional[List[TupleRef]] = None
        self._value_columns: Dict[int, object] = {}
        self._value_codes: Dict[int, Tuple[object, int]] = {}
        self._hash_groups: Dict[tuple, object] = {}

    @classmethod
    def extended(cls, parent: "RelationIndex", new_rows: Iterable[Row]) -> "RelationIndex":
        """A new interning table with ``new_rows`` appended at fresh tids.

        The append invariant of incremental insertion: every tid of
        ``parent`` keeps its meaning (packed provenance columns referring to
        it stay valid verbatim), and genuinely new rows are interned at
        ``len(parent)``, ``len(parent) + 1``, ...  Rows already present in
        ``parent`` (or repeated in the batch) are skipped, so extending is
        idempotent.  Derived views (ref view, value columns, hash groups)
        are rebuilt lazily on the extension -- the parent's caches keep
        describing the old snapshot.
        """
        index = cls.__new__(cls)
        index.name = parent.name
        index.attributes = parent.attributes
        rows = list(parent.rows)
        ids = dict(parent.ids)
        for row in new_rows:
            stored = tuple(row)
            if stored not in ids:
                ids[stored] = len(rows)
                rows.append(stored)
        index.rows = rows
        index.ids = ids
        index._ref_view = None
        index._value_columns = {}
        index._value_codes = {}
        index._hash_groups = {}
        return index

    @classmethod
    def from_rows(
        cls, name: str, attributes: Tuple[str, ...], rows: Iterable[Row]
    ) -> "RelationIndex":
        """An interning table with ``rows`` interned in the given order.

        The snapshot loader (:mod:`repro.storage`) persists a relation's
        rows in interned order precisely so recovery can rebuild the same
        ``tid`` assignment here: ``Relation`` stores rows in a set, whose
        iteration order is process-dependent, but packed provenance columns
        written to disk refer to tids and therefore pin this order.  Seeding
        the rebuilt index into an :class:`~repro.engine.evaluate.EngineContext`
        makes post-recovery evaluations byte-identical to the pre-crash ones.
        Duplicate rows are skipped (first occurrence wins), matching
        :meth:`extended`.
        """
        index = cls.__new__(cls)
        index.name = name
        index.attributes = tuple(attributes)
        ordered: List[Row] = []
        ids: Dict[Row, int] = {}
        for row in rows:
            stored = tuple(row)
            if stored not in ids:
                ids[stored] = len(ordered)
                ordered.append(stored)
        index.rows = ordered
        index.ids = ids
        index._ref_view = None
        index._value_columns = {}
        index._value_codes = {}
        index._hash_groups = {}
        return index

    def ref_view(self) -> List[TupleRef]:
        """``tid -> TupleRef`` view, built lazily and cached on the index.

        Caching here (rather than per :class:`ColumnarProvenance`) lets every
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
        entry = self._value_codes.get(position)
        if entry is None:
            np = backend.np
            interned: Dict[object, int] = {}
            setdefault = interned.setdefault
            codes = np.fromiter(
                (
                    setdefault(row[position], len(interned))
                    for row in self.rows
                ),
                np.int64,
                count=len(self.rows),
            )
            entry = (codes, max(len(interned), 1))
            self._value_codes[position] = entry
        return entry

    def hash_groups(self, positions: Tuple[int, ...], backend: Backend) -> object:
        """The build side of one hash-join step, cached per key attributes.

        For the Python backend: ``{key: [tids]}`` with tids ascending (the
        exact table the probe loop walks).  For the NumPy backend the same
        grouping in CSR form: ``(table, counts, starts, flat)`` where
        ``table`` maps a key value to its group id and
        ``flat[starts[g] : starts[g] + counts[g]]`` lists the group's tids
        in ascending order -- what the vectorized probe expands with
        ``repeat``/``take``.
        """
        cache_key = (backend.name, positions)
        groups = self._hash_groups.get(cache_key)
        if groups is not None:
            return groups
        rows = self.rows
        if len(positions) == 1:
            p = positions[0]
            keys = (row[p] for row in rows)
        else:
            keys = (tuple(row[p] for p in positions) for row in rows)
        if backend.is_numpy:
            np = backend.np
            table: Dict[object, int] = {}
            buckets: List[List[int]] = []
            get = table.get
            for tid, key in enumerate(keys):
                g = get(key)
                if g is None:
                    table[key] = len(buckets)
                    buckets.append([tid])
                else:
                    buckets[g].append(tid)
            counts = np.fromiter(
                (len(b) for b in buckets), np.int64, count=len(buckets)
            )
            ends = np.cumsum(counts)
            starts = ends - counts
            flat = np.fromiter(
                (tid for bucket in buckets for tid in bucket),
                np.int64,
                count=int(ends[-1]) if len(buckets) else 0,
            )
            groups = (table, counts, starts, flat)
        else:
            lists: Dict[object, List[int]] = {}
            setdefault = lists.setdefault
            for tid, key in enumerate(keys):
                setdefault(key, []).append(tid)
            groups = lists
        self._hash_groups[cache_key] = groups
        return groups

    def __len__(self) -> int:
        return len(self.rows)


class ColumnarProvenance:
    """Packed witness provenance of one evaluation.

    Attributes
    ----------
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
        output tuple witness ``w`` produces.
    output_rows, output_index:
        The distinct output tuples and their reverse index (the index is
        derived lazily from ``output_rows`` when not supplied).
    vacuum_refs:
        References to the (empty) tuples of non-empty vacuum relations; by
        convention they participate in *every* witness.
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
    )

    def __init__(
        self,
        query: ConjunctiveQuery,
        atom_names: Tuple[str, ...],
        indexes: Sequence[RelationIndex],
        ref_columns: Sequence[List[int]],
        witness_outputs: List[int],
        output_rows: List[Row],
        output_index: Optional[Dict[Row, int]] = None,
        vacuum_refs: Tuple[TupleRef, ...] = (),
    ) -> None:
        self.query = query
        self.atom_names = atom_names
        self.indexes: List[RelationIndex] = list(indexes)
        self.ref_columns: List[List[int]] = list(ref_columns)
        self.witness_outputs = witness_outputs
        self.output_rows = output_rows
        self._output_index = output_index if output_index else None
        self.vacuum_refs = vacuum_refs
        self._atom_position: Dict[str, int] = {
            name: position for position, name in enumerate(atom_names)
        }
        self._postings: List[Optional[Dict[int, List[int]]]] = [None] * len(atom_names)
        #: Guards the lazy postings builds: concurrent ``what_if``/delta
        #: callers sharing one (immutable) provenance must not duplicate the
        #: O(witnesses) inversion scan or observe a half-built index.
        self._postings_lock = threading.Lock()

    @property
    def output_index(self) -> Dict[Row, int]:
        """``output row -> position`` reverse index (built lazily)."""
        index = self._output_index
        if index is None:
            index = {row: i for i, row in enumerate(self.output_rows)}
            self._output_index = index
        return index

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

    def ref(self, position: int, tid: int) -> TupleRef:
        """The :class:`TupleRef` for one (atom position, tuple ID) pair."""
        return self.refs_for_atom(position)[tid]

    def postings_for_atom(self, position: int) -> Dict[int, List[int]]:
        """``tid -> sorted witness positions`` for one atom (lazy, cached).

        The inverted form of ``ref_columns[position]``: which witnesses use
        each input tuple.  Built on first use and kept for the lifetime of
        the provenance, so repeated incremental-deletion queries
        (``Session.what_if``) pay for the scan once -- the role indexes play
        on the paper's PostgreSQL connection.
        """
        postings = self._postings[position]  # repro: noqa REP003 -- double-checked lazy build: the GIL makes this list-slot read atomic, and the slow path re-reads under the lock before building
        if postings is None:
            with self._postings_lock:
                postings = self._postings[position]
                if postings is None:
                    # Backend-dispatched: one stable argsort + zero-copy
                    # splits on ndarray columns, the classic setdefault loop
                    # on lists.
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

    def outputs_removed_by(self, removed: Iterable[TupleRef]) -> int:
        """How many output tuples disappear when ``removed`` is deleted.

        An output dies when every one of its witnesses uses at least one
        removed tuple.  Runs over the packed ``tid`` columns: per witness one
        set-membership probe per relation that actually lost tuples.
        """
        per_atom: List[Set[int]] = [set() for _ in self.atom_names]
        vacuum = set(self.vacuum_refs)
        for ref in removed:
            if ref in vacuum:
                # A removed vacuum tuple hits every witness: all outputs die.
                return self.output_count()
            located = self.locate(ref)
            if located is not None:
                per_atom[located[0]].add(located[1])

        active = [
            (column, tids)
            for column, tids in zip(self.ref_columns, per_atom)
            if tids
        ]
        if not active:
            return 0
        if is_ndarray(active[0][0]):
            # Vectorized: OR the per-atom membership masks, then count the
            # outputs whose every witness is hit.
            np = backend_of_column(active[0][0]).np
            hit = np.zeros(self.witness_count(), dtype=bool)
            for column, tids in active:
                hit |= np.isin(
                    column, np.fromiter(tids, np.int64, count=len(tids))
                )
            alive = np.bincount(
                np.asarray(self.witness_outputs)[~hit],
                minlength=self.output_count(),
            )
            return int(np.count_nonzero(alive == 0))
        alive = [0] * self.output_count()
        witness_outputs = self.witness_outputs
        for w in range(len(witness_outputs)):
            for column, tids in active:
                if column[w] in tids:
                    break
            else:
                alive[witness_outputs[w]] += 1
        return sum(1 for count in alive if count == 0)

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


def empty_provenance(
    query: ConjunctiveQuery,
    atoms: Sequence[Atom],
    database: Database,
    index_for: Optional[IndexSupplier] = None,
    backend: Optional[Backend] = None,
) -> ColumnarProvenance:
    """A provenance payload with no witnesses (empty query result)."""
    build = index_for or RelationIndex
    backend = backend or python_backend()
    indexes = [build(database.relation(atom.name)) for atom in atoms]
    return ColumnarProvenance(
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
    its attribute, so probe rows are grouped by a mixed-radix encoding of
    the binding relations' interned value codes (one ``np.unique``), one
    representative key per group is looked up in the build table, and the
    answers are scattered back through the group inverse.
    """
    np = backend.np
    table = rindex.hash_groups(shared_positions, backend)[0]
    per_attr = []  # (per-probe-row value-code column, radix)
    radix_product = 1
    for attribute in shared:
        binder = binding[attribute]
        bindex = indexes[binder]
        codes, radix = bindex.value_codes(
            bindex.attributes.index(attribute), backend
        )
        per_attr.append((codes[ref_columns[binder]], radix))
        radix_product *= radix
    get = table.get
    if radix_product >= 2**62:  # pragma: no cover - astronomically wide keys
        # Mixed-radix would overflow int64: fall back to per-row probing.
        if len(shared) == 1:
            keys = iter(bound[shared[0]])
        else:
            keys = zip(*(bound[a] for a in shared))
        n_probe = len(per_attr[0][0])
        return np.fromiter((get(key, -1) for key in keys), np.int64, count=n_probe)
    code = None
    for column, radix in per_attr:
        code = column if code is None else code * radix + column
    _uniq, first_index, inverse = np.unique(
        code, return_index=True, return_inverse=True
    )
    if len(shared) == 1:
        representatives = bound[shared[0]].take(first_index)
        gid_per_group = np.fromiter(
            (get(key, -1) for key in representatives),
            np.int64,
            count=first_index.size,
        )
    else:
        columns = [bound[a].take(first_index) for a in shared]
        gid_per_group = np.fromiter(
            (get(key, -1) for key in zip(*columns)),
            np.int64,
            count=first_index.size,
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
    (= ascending tid) order within each probe row -- as ``repeat``/``take``
    array kernels.
    """
    np = backend.np
    _table, counts, starts, flat = rindex.hash_groups(shared_positions, backend)
    matched = np.nonzero(gids >= 0)[0]
    matched_gids = gids[matched]
    match_counts = counts[matched_gids]
    total = int(match_counts.sum())
    selection = np.repeat(matched, match_counts)
    ends = np.cumsum(match_counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - match_counts, match_counts)
    tids = flat[np.repeat(starts[matched_gids], match_counts) + within]
    return selection, tids


def join_columns(
    ordered_atoms: Sequence[Atom],
    database: Database,
    keep_attributes: Iterable[str],
    max_witnesses: Optional[int] = None,
    query_name: str = "Q",
    index_for: Optional[IndexSupplier] = None,
    backend: Optional[Backend] = None,
) -> Tuple[Dict[str, List[object]], List[List[int]], List[RelationIndex]]:
    """Left-deep hash join over interned ID columns.

    Parameters
    ----------
    ordered_atoms:
        Non-vacuum atoms in join order (see ``_join_order``).
    database:
        The instance; every atom's relation must exist.
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
    index_for:
        Optional supplier of (cached) :class:`RelationIndex` objects; when
        omitted every call re-interns each relation.
    backend:
        The array backend (see :mod:`repro.engine.backend`); defaults to the
        pure-Python kernels.  With the NumPy backend, value columns are
        ``dtype=object`` arrays (same Python objects inside) and ``tid``
        columns are ``int64`` arrays; the produced witnesses are
        byte-identical to the Python backend's in every observable way.

    Returns
    -------
    (bound, ref_columns, indexes)
        ``bound[attr]`` is the value column of each kept attribute,
        ``ref_columns[a]`` the ``tid`` column of atom ``a`` and ``indexes``
        the per-atom interners.  All columns share the same length (the
        number of witnesses).
    """
    build = index_for or RelationIndex
    backend = backend or python_backend()
    vector = backend.is_numpy
    indexes = [build(database.relation(atom.name)) for atom in ordered_atoms]

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
    stats = current_collector()

    for step, (atom, rindex) in enumerate(zip(ordered_atoms, indexes)):
        step_span = span("engine.join.atom")
        with step_span:
            rel_position = {a: rindex.attributes.index(a) for a in atom.attributes}
            shared = [a for a in atom.attributes if a in bound]
            rows = rindex.rows
            needed = needed_after[step]
            probed = len(rows) if count is None else count

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
                # First atom (or first of the whole join): every tuple starts a
                # partial row.
                tids = backend.id_range(len(rows))
            else:
                # Disconnected component: cross product with the partials so far,
                # partial-major: the witness order the row-at-a-time reference
                # evaluator (the parity oracle) produces.
                if vector:
                    np = backend.np
                    selection = np.repeat(
                        np.arange(count, dtype=np.int64), len(rows)
                    )
                    tids = np.tile(np.arange(len(rows), dtype=np.int64), count)
                    bound = {
                        a: column.take(selection)
                        for a, column in bound.items()
                        if a in needed
                    }
                    ref_columns = [column.take(selection) for column in ref_columns]
                else:
                    tid_range = range(len(rows))
                    selection = [i for i in range(count) for _ in tid_range]
                    tids = [tid for _ in range(count) for tid in tid_range]
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
                step_span.set(
                    relation=atom.name,
                    rows=len(rows),
                    probed=probed,
                    witnesses=count,
                )
            if stats is not None:
                # Build-side bucket sizes for the heavy-hitter summary; the
                # hash table is cached on the interning table, so this
                # re-fetch does no hashing work.
                bucket_sizes = None
                if shared:
                    groups = rindex.hash_groups(shared_positions, backend)
                    if vector:
                        gid_table, group_counts = groups[0], groups[1]
                        bucket_sizes = (
                            (key, int(group_counts[gid]))
                            for key, gid in gid_table.items()
                        )
                    else:
                        bucket_sizes = (
                            (key, len(members)) for key, members in groups.items()
                        )
                stats.record(
                    join_step_record(
                        step, atom.name, len(rows), probed, count, shared,
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
    return bound, ref_columns, indexes
