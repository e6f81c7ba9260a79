"""Delta semijoins: incremental maintenance of witness provenance.

Deleting input tuples can only *shrink* the set of full-join rows of a
self-join-free CQ: a witness survives iff none of its per-atom input tuples
was deleted, and an output tuple survives iff at least one of its witnesses
does.  So the effect of a deletion set on an already-evaluated
:class:`~repro.engine.evaluate.QueryResult` is a **semijoin of the packed
provenance columns against the surviving tuples** -- resolved through the
provenance's inverted postings index (tuple -> witness positions) in time
proportional to the *dead* witnesses, not to the whole join -- rather than a
re-intern + re-join of the whole database.

This is the engine behind the session what-if API:

* :func:`delta_counts` answers the counting question ("how many witnesses /
  outputs disappear?") in ``O(|dead witnesses|)`` after the one-off postings
  build -- the paper's *counting version* of deletion propagation;
* :func:`delta_filter_result` produces the full post-deletion
  ``QueryResult`` (``Session.what_if``'s lazily materialized ``after``
  view), and
* ``Session.apply_deletions`` uses it to migrate every cached result across
  the database's version bump, so the next ``session.evaluate`` after an
  in-place deletion is a cache hit instead of a join.

The filtered result shares the (immutable) :class:`RelationIndex` interning
tables with its parent: deleted tuples simply no longer appear in any
``tid`` column, which is exactly how the row semantics define them away.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.data.relation import Row, TupleRef
from repro.engine.backend import (
    Column,
    as_id_list,
    backend_of_column,
    group_positions,
    is_ndarray,
    python_backend,
)
from repro.engine.columnar import ColumnarProvenance, RelationIndex
from repro.engine.evaluate import QueryResult
from repro.obs.stats import current_collector
from repro.obs.trace import span


def _dead_witnesses(
    provenance: ColumnarProvenance, removed: Iterable[TupleRef]
) -> Optional[Union[Set[int], Column]]:
    """Witness positions killed by ``removed``; ``None`` = *all* witnesses.

    ``None`` is the vacuum-deletion case (a removed vacuum tuple guards away
    every witness).  Refs are grouped by relation first so the per-ref work
    is one plain-tuple dict probe (``TupleRef``'s generated dataclass hash is
    Python-level and shows up on large deletion sets); located tids are then
    expanded through the provenance's lazy postings index, so the collection
    step costs ``O(|dead witnesses|)``, not ``O(|witnesses|)``.

    Returns a ``set`` of positions for list-packed provenance, or a
    deduplicated ``int64`` ndarray for ndarray-packed provenance (the
    postings are array views there -- one concatenate + unique instead of
    per-ref set insertion).  Both support ``len``.
    """
    vacuum = set(provenance.vacuum_refs)
    by_relation: dict = {}
    for ref in removed:
        if vacuum and ref in vacuum:
            return None
        by_relation.setdefault(ref.relation, []).append(ref.values)

    vectorized = provenance.atom_count() and is_ndarray(provenance.ref_columns[0])
    chunks = []  # ndarray path: posting arrays, deduplicated at the end
    dead: Set[int] = set()
    update = dead.update
    for relation_name, values_list in by_relation.items():
        position = provenance.atom_position(relation_name)
        if position is None:
            continue
        ids_get = provenance.indexes[position].ids.get
        postings_get = provenance.postings_for_atom(position).get
        for values in values_list:
            tid = ids_get(values)
            if tid is not None:
                hits = postings_get(tid)
                if hits is not None and len(hits):
                    if vectorized:
                        chunks.append(hits)
                    else:
                        update(hits)
    if vectorized:
        np = backend_of_column(provenance.ref_columns[0]).np
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(chunks))
    return dead


def _alive_mask(
    provenance: ColumnarProvenance, dead: Union[Set[int], Column]
) -> Union[bytearray, Column]:
    """A boolean alive mask over the witness positions.

    A NumPy ``bool`` array when the provenance is ndarray-packed (so the
    downstream compressions run as array kernels), a ``bytearray``
    otherwise.
    """
    count = provenance.witness_count()
    if is_ndarray(dead):
        np = backend_of_column(dead).np
        alive = np.ones(count, dtype=bool)
        alive[dead] = False
        return alive
    alive = bytearray(b"\x01") * count
    for w in dead:
        alive[w] = 0
    return alive


def delta_counts(
    result: QueryResult,
    removed: Iterable[TupleRef],
) -> Tuple[int, int]:
    """``(witnesses removed, outputs removed)`` for a hypothetical deletion.

    The counting version of the delta semijoin, computed without
    materializing the post-deletion result: dead witnesses come from the
    postings index in ``O(|dead|)``; on projection queries one additional
    C-speed mask scan over ``witness_outputs`` counts the surviving
    outputs.  Matches ``delta_filter_result`` (and hence a fresh
    evaluation) exactly.
    """
    with span("engine.delta.counts"):
        counts = _delta_counts_body(result, removed)
    stats = current_collector()
    if stats is not None:
        stats.record(
            {
                "op": "delta.counts",
                "dead_witnesses": counts[0],
                "removed_outputs": counts[1],
            }
        )
    return counts


def _delta_counts_body(
    result: QueryResult,
    removed: Iterable[TupleRef],
) -> Tuple[int, int]:
    """The branchy core of :func:`delta_counts` (span/stats live above)."""
    provenance = result.provenance
    dead = _dead_witnesses(provenance, removed)
    if dead is None:
        return (provenance.witness_count(), provenance.output_count())
    if len(dead) == 0:
        return (0, 0)
    count = provenance.witness_count()
    output_count = provenance.output_count()
    if output_count == count:
        # Bijection (no projection sharing): outputs die with their
        # witness.
        return (len(dead), len(dead))
    alive = _alive_mask(provenance, dead)
    if is_ndarray(provenance.witness_outputs):
        np = backend_of_column(provenance.witness_outputs).np
        surviving_count = np.unique(provenance.witness_outputs[alive]).size
        return (len(dead), output_count - int(surviving_count))
    surviving = set(compress(provenance.witness_outputs, alive))
    return (len(dead), output_count - len(surviving))


def _compact_outputs(
    old_output_rows: List[Row],
    surviving_outputs: List[int],
    witness_count: int,
) -> Tuple[List[Row], List[int]]:
    """Relabel surviving old output indices into a dense range.

    Returns ``(output_rows, witness_outputs)``; survivors keep their
    original relative order, so filtered results stay deterministic.  The
    reverse ``output_index`` is *not* built here -- the result classes
    derive it lazily, and most incremental consumers never ask for it.
    """
    if is_ndarray(surviving_outputs):
        np = backend_of_column(surviving_outputs).np
        if len(old_output_rows) == witness_count:
            output_rows = list(
                map(old_output_rows.__getitem__, surviving_outputs.tolist())
            )
            return output_rows, np.arange(len(output_rows), dtype=np.int64)
        # Vectorized relabel: unique surviving old ids, ranked by first
        # witness occurrence -- O(distinct outputs) Python work only.
        uniq, first_index, inverse = np.unique(
            surviving_outputs, return_index=True, return_inverse=True
        )
        order = np.argsort(first_index, kind="stable")
        output_rows = [old_output_rows[i] for i in uniq[order].tolist()]
        lookup = np.empty(uniq.size, dtype=np.int64)
        lookup[order] = np.arange(uniq.size, dtype=np.int64)
        return output_rows, lookup[inverse]
    if len(old_output_rows) == witness_count:
        # Bijection fast path (no projection sharing): every surviving
        # witness keeps its own distinct output, so the relabeling is just a
        # gather plus an identity witness->output column.
        output_rows = list(map(old_output_rows.__getitem__, surviving_outputs))
        return output_rows, list(range(len(output_rows)))

    remap: dict = {}
    output_rows = []
    witness_outputs: List[int] = []
    append_row = output_rows.append
    append_out = witness_outputs.append
    for old in surviving_outputs:
        new = remap.get(old)
        if new is None:
            new = len(remap)
            remap[old] = new
            append_row(old_output_rows[old])
        append_out(new)
    return output_rows, witness_outputs


def delta_filter_provenance(
    provenance: ColumnarProvenance,
    removed: Iterable[TupleRef],
) -> ColumnarProvenance:
    """Semijoin packed provenance against the complement of ``removed``.

    Dead witnesses come from the postings index (``O(|dead|)``); survivors
    are gathered with ``compress`` over an alive mask -- one C-speed scan per
    column.  Returns a new :class:`ColumnarProvenance` sharing the parent's
    interning tables.
    """
    dead = _dead_witnesses(provenance, removed)
    if dead is None:
        # Vacuum deletion: the guard fails, every witness and output dies.
        return ColumnarProvenance(
            provenance.query,
            provenance.atom_names,
            provenance.indexes,
            [[] for _ in provenance.atom_names],
            [],
            [],
            {},
            (),
        )
    if len(dead) == 0:
        # Unknown or dangling refs only: every witness survives, and the
        # provenance is reusable as-is (results are immutable by contract).
        return provenance

    witness_outputs = provenance.witness_outputs
    count = len(witness_outputs)
    alive = _alive_mask(provenance, dead)
    if is_ndarray(provenance.ref_columns[0]):
        # Boolean-mask semijoin: one C-speed compression per packed column.
        backend = backend_of_column(provenance.ref_columns[0])
        new_columns = [column[alive] for column in provenance.ref_columns]
        surviving_old_outputs = witness_outputs[alive]
        output_rows, compacted = _compact_outputs(
            provenance.output_rows, surviving_old_outputs, count
        )
        new_witness_outputs = backend.id_column(compacted)
    else:
        new_columns = [
            list(compress(column, alive)) for column in provenance.ref_columns
        ]
        surviving_old_outputs = list(compress(witness_outputs, alive))
        output_rows, new_witness_outputs = _compact_outputs(
            provenance.output_rows, surviving_old_outputs, count
        )

    return ColumnarProvenance(
        provenance.query,
        provenance.atom_names,
        provenance.indexes,
        new_columns,
        new_witness_outputs,
        output_rows,
        None,
        provenance.vacuum_refs,
    )


def delta_filter_result(
    result: QueryResult,
    removed: Iterable[TupleRef],
) -> QueryResult:
    """The post-deletion :class:`QueryResult`, derived without re-joining.

    Equivalent to ``evaluate(result.query, database.without(removed))`` up to
    witness/output *order* (the fresh join iterates mutated hash sets); the
    witness sets, output sets and all provenance counts are identical --
    the property the parity tests pin down.
    """
    with span("engine.delta.filter"):
        provenance = result.provenance
        filtered = delta_filter_provenance(provenance, removed)
        if filtered is provenance:
            filtered_result = result
        else:
            filtered_result = QueryResult(
                filtered.query,
                filtered.output_rows,
                # The public QueryResult field stays a plain list on every
                # backend; the packed (possibly ndarray) column lives on the
                # provenance.
                as_id_list(filtered.witness_outputs),
                filtered,
            )
    stats = current_collector()
    if stats is not None:
        stats.record(
            {
                "op": "delta.filter",
                "witnesses_before": result.witness_count(),
                "witnesses_after": filtered_result.witness_count(),
                "outputs_after": filtered_result.output_count(),
            }
        )
    return filtered_result


def outputs_delta(result: QueryResult, removed: Iterable[TupleRef]) -> int:
    """How many outputs a deletion removes (semijoin-counting shortcut)."""
    return delta_counts(result, removed)[1]


# --------------------------------------------------------------------------- #
# Incremental insertion: the delta join on the inserted side
# --------------------------------------------------------------------------- #
#
# Inserting tuples can only *grow* the witness set of a self-join-free CQ,
# and every new witness must use at least one inserted tuple.  With the
# inserted rows Δ_p of atom position ``p`` (provenance join order), the new
# witnesses decompose without double counting as the telescoping union
#
#     ⋃_p  Join(E_0, ..., E_{p-1},  Δ_p,  O_{p+1}, ..., O_{n-1})
#
# where ``E_q`` is the *extended* relation (live rows + Δ_q) and ``O_q`` the
# pre-insertion live rows only: each witness is charged to the last atom
# position that contributed an inserted tuple.  Because |Δ| is small, each
# term is seeded from the delta rows and probed through the interning
# tables' cached hash groups -- work proportional to the delta and its new
# witnesses, never to the existing join.  Discovered witnesses are
# *appended*: old tids, witness positions and output ids all keep their
# meaning, so the packed columns, the postings index and the output table
# extend in place instead of being rebuilt (the append invariant the parity
# suite pins down).
#
# Liveness: interning tables are append-only and shared across deletions
# (``delta_filter_provenance`` drops dead witnesses from the packed columns
# but never from the indexes), so "interned" does not imply "stored".  The
# optional ``row_live(relation, row)`` predicate tells the delta join which
# interned rows are actually live *before* this insertion: dead rows are
# never matched, and a batch row that is interned-but-dead is a
# **resurrection** -- it re-enters as a delta row under its existing tid.
# Without the predicate every interned row is assumed live (correct when no
# deletion has been applied since the provenance was built).

#: ``extend_index(parent)`` hook: lets ``Session.apply_insertions`` share one
#: extended :class:`RelationIndex` per relation across every migrated cache
#: entry (and seed it into the engine context's interners afterwards).
ExtendIndex = Callable[[RelationIndex], RelationIndex]

#: ``row_live(relation, row)`` -> is the interned row stored right now,
#: *before* this insertion?  See the liveness note above.
RowLive = Callable[[str, Row], bool]


def _inserted_rows_by_position(
    provenance: ColumnarProvenance,
    inserted: Iterable[TupleRef],
    row_live: Optional[RowLive],
) -> Dict[int, List[Row]]:
    """Genuinely new rows per atom position, deduplicated, arrival-ordered.

    Rows already stored, repeated refs and refs for relations outside the
    query's atoms contribute nothing.  "Stored" means interned *and* live:
    with a ``row_live`` predicate, an interned-but-deleted row re-enters as
    a resurrection delta row.
    """
    by_position: Dict[int, List[Row]] = {}
    seen: Set[Tuple[int, Row]] = set()
    for ref in inserted:
        position = provenance.atom_position(ref.relation)
        if position is None:
            continue
        row = tuple(ref.values)
        key = (position, row)
        if key in seen:
            continue
        seen.add(key)
        if row in provenance.indexes[position].ids and (
            row_live is None or row_live(ref.relation, row)
        ):
            continue
        by_position.setdefault(position, []).append(row)
    return by_position


def _discover_new_witnesses(
    provenance: ColumnarProvenance,
    by_position: Dict[int, List[Row]],
    extended: List[RelationIndex],
    row_live: Optional[RowLive],
) -> Tuple[List[List[int]], List[Dict[str, object]]]:
    """All witnesses that use at least one inserted tuple.

    Returns ``(new_columns, assignments)``: one appended tid column per atom
    (all the same length) and, aligned with them, the attribute binding of
    each new witness (for output factorization).  Deterministic: seed
    positions ascending, delta rows in arrival order, matching tids
    ascending.
    """
    n = provenance.atom_count()
    backend = python_backend()
    old_sizes = [len(provenance.indexes[a]) for a in range(n)]
    names = [provenance.indexes[a].name for a in range(n)]
    # Batch tids per atom in the extended tables: appended rows *and*
    # resurrected old rows.  They seed the delta terms and must never be
    # matched by the old-rows-only probes (q > p).
    delta_tids: List[Set[int]] = []
    for a in range(n):
        rows = by_position.get(a) or ()
        ids = extended[a].ids
        delta_tids.append({ids[row] for row in rows})
    new_columns: List[List[int]] = [[] for _ in range(n)]
    assignments: List[Dict[str, object]] = []

    def dead(q: int, tid: int, rows_q: Sequence[Row]) -> bool:
        """Interned but deleted before this batch (and not in the batch)."""
        if tid in delta_tids[q]:
            return False
        return row_live is not None and not row_live(names[q], rows_q[tid])

    for p in range(n):
        delta = by_position.get(p)
        if not delta:
            continue
        attrs_p = extended[p].attributes
        ids_p = extended[p].ids
        # One partial row per delta tuple of atom p; its tid is already
        # final (appended rows got theirs from the extension, resurrected
        # rows keep their old one).
        partials: List[Tuple[Dict[str, object], List[int]]] = []
        for row in delta:
            assignment: Dict[str, object] = {}
            for attribute, value in zip(attrs_p, row):
                assignment.setdefault(attribute, value)
            tids = [-1] * n
            tids[p] = ids_p[row]
            partials.append((assignment, tids))

        for q in range(n):
            if q == p:
                continue
            if not partials:
                break
            index_q = extended[q]
            # Atoms before the seed see live + inserted rows, atoms after it
            # pre-insertion live rows only -- the telescoping split that
            # makes the union over seed positions exact.
            after_seed = q > p
            limit = old_sizes[q] if after_seed else None
            attrs_q = index_q.attributes
            positions_q: Dict[str, int] = {}
            for position, attribute in enumerate(attrs_q):
                positions_q.setdefault(attribute, position)
            bound = partials[0][0]
            shared = [a for a in positions_q if a in bound]
            fresh = [(a, positions_q[a]) for a in positions_q if a not in bound]
            rows_q = index_q.rows
            next_partials: List[Tuple[Dict[str, object], List[int]]] = []
            if shared:
                shared_positions = tuple(positions_q[a] for a in shared)
                table = index_q.hash_groups(shared_positions, backend)
                get = table.get
                single = shared[0] if len(shared) == 1 else None
                for assignment, tids in partials:
                    if single is not None:
                        key = assignment[single]
                    else:
                        key = tuple(assignment[a] for a in shared)
                    matches = get(key)
                    if not matches:
                        continue
                    for tid in matches:
                        if limit is not None and tid >= limit:
                            break  # bucket tids ascend: the rest are inserted
                        if after_seed and tid in delta_tids[q]:
                            continue  # resurrected batch row: delta, not old
                        if dead(q, tid, rows_q):
                            continue
                        if fresh:
                            row = rows_q[tid]
                            extended_assignment = dict(assignment)
                            for attribute, position in fresh:
                                extended_assignment[attribute] = row[position]
                        else:
                            extended_assignment = assignment
                        new_tids = tids.copy()
                        new_tids[q] = tid
                        next_partials.append((extended_assignment, new_tids))
            else:
                # Disconnected step: cross product, partial-major.
                count_q = len(index_q) if limit is None else limit
                eligible = [
                    tid
                    for tid in range(count_q)
                    if not (after_seed and tid in delta_tids[q])
                    and not dead(q, tid, rows_q)
                ]
                for assignment, tids in partials:
                    for tid in eligible:
                        row = rows_q[tid]
                        extended_assignment = dict(assignment)
                        for attribute, position in fresh:
                            extended_assignment[attribute] = row[position]
                        new_tids = tids.copy()
                        new_tids[q] = tid
                        next_partials.append((extended_assignment, new_tids))
            partials = next_partials

        for assignment, tids in partials:
            for a in range(n):
                new_columns[a].append(tids[a])
            assignments.append(assignment)
    return new_columns, assignments


def _extended_indexes(
    provenance: ColumnarProvenance,
    by_position: Dict[int, List[Row]],
    extend_index: Optional[ExtendIndex],
) -> List[RelationIndex]:
    """Per atom: the extended interning table, or the parent's unchanged."""
    extended: List[RelationIndex] = []
    for position, parent in enumerate(provenance.indexes):
        rows = by_position.get(position)
        if not rows:
            extended.append(parent)
        elif extend_index is not None:
            extended.append(extend_index(parent))
        else:
            extended.append(RelationIndex.extended(parent, rows))
    return extended


def _migrated_postings(
    provenance: ColumnarProvenance,
    new_columns: List[List[int]],
    vectorized: bool,
) -> List[Optional[Dict[int, List[int]]]]:
    """Extend the parent's already-built postings with the new witnesses.

    Unbuilt atoms stay ``None`` (lazy as before).  Parent lists/arrays are
    never mutated -- cached results are immutable by contract -- but every
    untouched tid keeps sharing the parent's posting object.
    """
    old_count = provenance.witness_count()
    migrated = []
    for position, parent_postings in enumerate(provenance._postings):
        if parent_postings is None:
            migrated.append(None)
            continue
        appended = group_positions(new_columns[position])
        merged = dict(parent_postings)
        for tid, positions in appended.items():
            offsets = [old_count + w for w in positions]
            existing = merged.get(tid)
            if vectorized:
                np = backend_of_column(provenance.ref_columns[0]).np
                chunk = np.asarray(offsets, dtype=np.int64)
                merged[tid] = (
                    chunk if existing is None
                    else np.concatenate([existing, chunk])
                )
            else:
                merged[tid] = (
                    offsets if existing is None else list(existing) + offsets
                )
        migrated.append(merged)
    return migrated


def delta_insert_provenance(
    provenance: ColumnarProvenance,
    inserted: Iterable[TupleRef],
    *,
    extend_index: Optional[ExtendIndex] = None,
    row_live: Optional[RowLive] = None,
) -> Optional[ColumnarProvenance]:
    """Append the witnesses created by ``inserted`` to packed provenance.

    Returns the *same* object when no inserted row touches the query's
    atoms, a new :class:`ColumnarProvenance` (old witnesses verbatim, new
    ones appended, interning tables extended) otherwise, and ``None`` when
    the query has vacuum atoms -- inserting into an empty guard relation
    flips every potential witness at once, so the caller must re-evaluate.
    ``row_live`` supplies pre-insertion liveness when deletions may have
    preceded this batch (see the module-level liveness note).
    """
    if provenance.query.has_vacuum_relation:
        return None
    by_position = _inserted_rows_by_position(provenance, inserted, row_live)
    if not by_position:
        return provenance
    extended = _extended_indexes(provenance, by_position, extend_index)
    new_columns, assignments = _discover_new_witnesses(
        provenance, by_position, extended, row_live
    )
    vectorized = provenance.atom_count() and is_ndarray(provenance.ref_columns[0])

    if not assignments:
        # No new witnesses, but the interning tables must still grow: later
        # delta batches probe these indexes and must see today's rows.
        updated = ColumnarProvenance(
            provenance.query,
            provenance.atom_names,
            extended,
            provenance.ref_columns,
            provenance.witness_outputs,
            provenance.output_rows,
            provenance._output_index,
            provenance.vacuum_refs,
        )
        updated._postings = list(provenance._postings)
        return updated

    # Factorize the new witnesses' outputs through the existing output
    # table, appending only genuinely new output rows.
    head = provenance.query.head
    output_index = provenance.output_index
    merged_index = dict(output_index)
    output_rows = list(provenance.output_rows)
    appended_outputs: List[int] = []
    for assignment in assignments:
        row = tuple(assignment[a] for a in head)
        out = merged_index.get(row)
        if out is None:
            out = len(output_rows)
            merged_index[row] = out
            output_rows.append(row)
        appended_outputs.append(out)

    if vectorized:
        np = backend_of_column(provenance.ref_columns[0]).np
        ref_columns = [
            np.concatenate([column, np.asarray(extra, dtype=np.int64)])
            for column, extra in zip(provenance.ref_columns, new_columns)
        ]
        witness_outputs = np.concatenate([
            provenance.witness_outputs,
            np.asarray(appended_outputs, dtype=np.int64),
        ])
    else:
        ref_columns = [
            list(column) + extra
            for column, extra in zip(provenance.ref_columns, new_columns)
        ]
        witness_outputs = list(provenance.witness_outputs) + appended_outputs

    updated = ColumnarProvenance(
        provenance.query,
        provenance.atom_names,
        extended,
        ref_columns,
        witness_outputs,
        output_rows,
        merged_index,
        provenance.vacuum_refs,
    )
    updated._postings = _migrated_postings(provenance, new_columns, vectorized)
    return updated


def delta_insert_counts(
    result: QueryResult,
    inserted: Iterable[TupleRef],
    *,
    row_live: Optional[RowLive] = None,
) -> Tuple[int, int]:
    """``(witnesses added, outputs added)`` for a hypothetical insertion.

    The counting version of the insert delta join, computed without
    materializing the appended provenance.  Requires a vacuum-free query
    (raises ``ValueError`` otherwise: vacuum guards do not support
    incremental discovery -- re-evaluate instead).
    """
    provenance = result.provenance
    if provenance.query.has_vacuum_relation:
        raise ValueError(
            "queries with vacuum atoms cannot be incrementally extended"
        )
    by_position = _inserted_rows_by_position(provenance, inserted, row_live)
    if not by_position:
        return (0, 0)
    extended = _extended_indexes(provenance, by_position, None)
    _, assignments = _discover_new_witnesses(
        provenance, by_position, extended, row_live
    )
    if not assignments:
        return (0, 0)
    head = provenance.query.head
    output_index = provenance.output_index
    new_rows: Set[Row] = set()
    for assignment in assignments:
        row = tuple(assignment[a] for a in head)
        if row not in output_index:
            new_rows.add(row)
    return (len(assignments), len(new_rows))


def delta_insert_result(
    result: QueryResult,
    inserted: Iterable[TupleRef],
    *,
    extend_index: Optional[ExtendIndex] = None,
    row_live: Optional[RowLive] = None,
) -> Optional[QueryResult]:
    """The post-insertion :class:`QueryResult`, derived without re-joining.

    Equivalent to a fresh evaluation on the grown database up to
    witness/output *order* (fresh joins walk mutated hash sets): witness
    sets, output sets and every provenance count are identical -- the
    parity contract of the differential mutation suite.  Returns the same
    object when the insertion is irrelevant to the query, and ``None``
    (caller must re-evaluate) for vacuum queries.
    """
    with span("engine.delta.insert"):
        provenance = result.provenance
        updated = delta_insert_provenance(
            provenance, inserted, extend_index=extend_index, row_live=row_live
        )
        if updated is None:
            return None
        stats = current_collector()
        if stats is not None:
            stats.record(
                {
                    "op": "delta.insert",
                    "changed": updated is not provenance,
                    "witnesses_after": updated.witness_count(),
                    "outputs_after": updated.output_count(),
                }
            )
        if updated is provenance:
            return result
        return QueryResult(
            updated.query,
            updated.output_rows,
            # The public QueryResult field stays a plain list on every
            # backend; the packed (possibly ndarray) column lives on the
            # provenance.
            as_id_list(updated.witness_outputs),
            updated,
        )


__all__ = [
    "delta_counts",
    "delta_filter_provenance",
    "delta_filter_result",
    "delta_insert_counts",
    "delta_insert_provenance",
    "delta_insert_result",
    "outputs_delta",
]
