"""Delta semijoins: incremental maintenance of witness provenance.

Deleting input tuples can only *shrink* the set of full-join rows of a
self-join-free CQ: a witness survives iff none of its per-atom input tuples
was deleted, and an output tuple survives iff at least one of its witnesses
does.  So the effect of a deletion set on an already-evaluated
:class:`~repro.engine.columnar.QueryResult` is a **semijoin of the packed
provenance columns against the surviving tuples** -- resolved through the
provenance's inverted postings index (tuple -> witness positions) in time
proportional to the *dead* witnesses, not to the whole join -- rather than a
re-intern + re-join of the whole database.  The postings are built lazily
per result (on ndarray provenance as CSR,
:class:`~repro.engine.backend.CsrPostings`: one stable argsort plus
per-tid offsets) and, once built, carried across mutations: a filtered or
grown result derives its parent's CSR in one sort-free pass
(:meth:`~repro.engine.backend.CsrPostings.compressed` /
:meth:`~repro.engine.backend.CsrPostings.appended`) instead of re-sorting
its witnesses.  Dict postings (list provenance) stay lazy: carrying them
would cost the same Python work as rebuilding them.

This is the engine behind the session what-if API:

* :func:`delta_counts` answers the counting question ("how many witnesses /
  outputs disappear?") in ``O(|dead witnesses|)`` after the one-off postings
  build -- the paper's *counting version* of deletion propagation.  Its
  core, :meth:`QueryResult.deletion_counts`, also verifies solver
  answers, and the result's ``dead_witnesses``/``alive_mask`` feed the
  filter below;
* :func:`delta_filter_result` produces the full post-deletion
  ``QueryResult`` (``Session.what_if``'s lazily materialized ``after``
  view), and
* ``Session.apply_deletions`` uses it to migrate every cached result across
  the database's version bump, so the next ``session.evaluate`` after an
  in-place deletion is a cache hit instead of a join.

Insertions run the other way: :func:`delta_insert_result` appends the
witnesses an insertion batch creates (``Session.apply_insertions``).

Every function here takes a :class:`~repro.engine.columnar.QueryResult`
and works on its packed provenance columns; the two that build a new
result construct one ``QueryResult`` from the new columns, so no
witness->output column is ever copied out of the packed form.  Deleted
tuples simply no longer appear in any ``tid`` column, which is exactly how
the row semantics define them away; a session mutation additionally
rebases the result onto the successor :class:`RelationIndex` tables, whose
live masks record the deletion, while a hypothetical (what-if) result
keeps its parent's tables.
"""

from __future__ import annotations

from itertools import compress
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.data.relation import Row, TupleRef
from repro.engine.backend import (
    Column,
    CsrPostings,
    Postings,
    backend_of_column,
    is_ndarray,
    python_backend,
)
from repro.engine.columnar import QueryResult, RelationIndex, join_columns
from repro.engine.evaluate import _join_order
from repro.obs.trace import span
from repro.query.cq import ConjunctiveQuery


def delta_counts(
    result: QueryResult,
    removed: Iterable[TupleRef],
) -> Tuple[int, int]:
    """``(witnesses removed, outputs removed)`` for a hypothetical deletion.

    The counting version of the delta semijoin, computed without
    materializing the post-deletion result
    (:meth:`~repro.engine.columnar.QueryResult.deletion_counts`, the
    counting core solver verification shares).  Matches
    ``delta_filter_result`` (and hence a fresh evaluation) exactly.
    """
    with span("engine.delta.counts") as sp:
        counts = result.deletion_counts(removed)
        if sp:
            sp.set(
                op="delta.counts",
                dead_witnesses=counts[0],
                removed_outputs=counts[1],
            )
    return counts


def _compact_outputs(
    old_output_rows: List[Row],
    witness_outputs: Column,
    alive: Union[bytearray, Column],
) -> Tuple[List[Row], Column]:
    """The output table of the witnesses ``alive`` keeps, densely relabelled.

    Returns ``(output_rows, witness_outputs)``, the packed column in the
    input's representation.  Output ids are numbered by first witness
    occurrence -- a fresh factorization numbers them so, filtering keeps
    witness order and insertion appends -- and the relabelling keeps that
    numbering: survivors are ranked by their first *surviving* witness,
    so filtered results stay deterministic.  The reverse ``output_index``
    is *not* built here -- the result derives it lazily, and most
    incremental consumers never ask for it.
    """
    if len(old_output_rows) == len(witness_outputs):
        # Bijection (no projection sharing): first-occurrence numbering
        # makes witness w produce output w, so the surviving rows are one
        # compression and the witness->output column is the identity.
        if is_ndarray(witness_outputs):
            np = backend_of_column(witness_outputs).np
            output_rows = list(compress(old_output_rows, alive.tobytes()))
            return output_rows, np.arange(len(output_rows), dtype=np.int64)
        output_rows = list(compress(old_output_rows, alive))
        return output_rows, list(range(len(output_rows)))
    if is_ndarray(witness_outputs):
        np = backend_of_column(witness_outputs).np
        surviving = witness_outputs[alive]
        # Sort-free relabel: the kept old ids, in the order of their first
        # surviving witness (a scatter-min of positions marks it).
        positions = np.arange(surviving.size, dtype=np.int64)
        first = np.full(len(old_output_rows), surviving.size, dtype=np.int64)
        np.minimum.at(first, surviving, positions)
        kept = surviving[first[surviving] == positions]
        lookup = np.empty(len(old_output_rows), dtype=np.int64)
        lookup[kept] = np.arange(kept.size, dtype=np.int64)
        output_rows = list(map(old_output_rows.__getitem__, kept.tolist()))
        return output_rows, lookup[surviving]

    remap: dict = {}
    output_rows = []
    new_outputs: List[int] = []
    append_row = output_rows.append
    append_out = new_outputs.append
    for old in compress(witness_outputs, alive):
        new = remap.get(old)
        if new is None:
            new = len(remap)
            remap[old] = new
            append_row(old_output_rows[old])
        append_out(new)
    return output_rows, new_outputs


def _carried_postings(
    result: QueryResult,
    derive: Callable[[int, CsrPostings], CsrPostings],
) -> List[Optional[Postings]]:
    """A successor's postings: ``derive(atom, csr)`` of every built CSR.

    Unbuilt slots stay lazy, and so do dict postings (list provenance):
    deriving a dict costs the same per-witness Python work as rebuilding
    it on first use.
    """
    return [
        derive(position, postings) if isinstance(postings, CsrPostings) else None
        for position, postings in enumerate(result._postings)
    ]


def _rebased(result: QueryResult, indexes: List[RelationIndex]) -> QueryResult:
    """The same packed columns (and postings) over successor tables."""
    return QueryResult(
        result.query, result.atom_names, indexes, result.ref_columns,
        result.witness_outputs, result.output_rows, result._output_index,
        result.vacuum_refs, result._postings,
    )


def delta_filter_result(
    result: QueryResult,
    removed: Iterable[TupleRef],
    tables: Optional[Mapping[str, RelationIndex]] = None,
) -> QueryResult:
    """The post-deletion :class:`QueryResult`, derived without re-joining.

    Semijoins the packed provenance against the complement of ``removed``:
    dead witnesses come from the postings index (``O(|dead|)``); survivors
    are gathered with an alive mask -- one C-speed compression per column.
    The new result indexes the successor interning tables ``tables``
    (relation name -> table with the deleted rows' bits cleared, what
    ``Session.apply_deletions`` publishes) and the parent's for every other
    relation; a hypothetical deletion (``Session.what_if``) passes none.

    Equivalent to ``evaluate(result.query, database.without(removed))`` up to
    witness/output *order*: the filter keeps the parent's witness order, and
    a parent grown by :func:`delta_insert_result` holds its new witnesses at
    the end (and re-inserted rows under their old tids), where a fresh join
    emits them in join order.  The witness sets, output sets and all
    provenance counts are identical -- the property the parity tests pin
    down.
    """
    with span("engine.delta.filter") as sp:
        indexes = [
            (tables or {}).get(name, index)
            for name, index in zip(result.atom_names, result.indexes)
        ]
        dead = result.dead_witnesses(removed)
        if dead is None:
            # Vacuum deletion: the guard fails, every witness and output dies.
            filtered = QueryResult(
                result.query, result.atom_names, indexes,
                [[] for _ in result.atom_names], [], [], {}, (),
            )
        elif len(dead) == 0:
            # Unknown or dangling refs only: every witness survives, and the
            # result is reusable as-is (results are immutable by contract)
            # unless its tables moved on.
            if indexes == result.indexes:
                filtered = result
            else:
                filtered = _rebased(result, indexes)
        else:
            alive = result.alive_mask(dead)
            if is_ndarray(result.ref_columns[0]):
                # Boolean-mask semijoin: one C-speed compression per column.
                new_columns = [column[alive] for column in result.ref_columns]
            else:
                new_columns = [
                    list(compress(column, alive)) for column in result.ref_columns
                ]
            output_rows, new_witness_outputs = _compact_outputs(
                result.output_rows, result.witness_outputs, alive
            )
            filtered = QueryResult(
                result.query,
                result.atom_names,
                indexes,
                new_columns,
                new_witness_outputs,
                output_rows,
                None,
                result.vacuum_refs,
                _carried_postings(result, lambda _atom, csr: csr.compressed(alive)),
            )
        if sp:
            sp.set(
                op="delta.filter",
                witnesses_before=result.witness_count(),
                witnesses_after=filtered.witness_count(),
                outputs_after=filtered.output_count(),
            )
    return filtered


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
# position that contributed an inserted tuple.  Each term is one
# :func:`~repro.engine.columnar.join_columns` call -- the same hash join a
# fresh evaluation runs, reporting the same ``engine.join.atom`` records --
# over interning tables whose live masks *are* the term's operands: the
# extended table for ``q < p``, its seed successor
# (:meth:`~RelationIndex.only`) for ``p``, and the parent table for
# ``q > p``, whose cached hash groups carry over.  The planner's order over
# the body with atom ``p`` moved to the front starts the join at the small
# delta, so the work is proportional to the delta and its new witnesses,
# never to the existing join.  Discovered witnesses are *appended*: old
# tids, witness positions and output ids all keep their meaning, so the
# packed columns and the output table extend in place instead of being
# rebuilt (the append invariant the parity suite pins down).  The grown
# result inherits every CSR postings index its parent had built, with the
# new positions spliced in; a full CQ also skips the output index, since
# each new witness brings its own new output row.
#
# Liveness lives in the tables: the successor table of a mutated relation
# stores exactly ``E_q`` (its hash groups hold live tids only), and a batch
# row interned-but-dead in the parent is a **resurrection** -- it re-enters
# as a delta row under its existing tid.  The parent table stores ``O_q``,
# so no probe ever matches a deleted row.
#
# The delta join runs on the Python kernels whatever the session backend.
# The NumPy kernels gather through ``value_column``/``value_codes``, which
# a grown table rebuilds over the whole relation on every version; the
# Python probe touches only the delta's matches.  On the 60k Zipf path
# (``R2`` grows to 66k rows; 500-edge inserts into cached ``Qh`` and
# ``Q6``; 2-vCPU host) a result insert read a median of 31-39 ms on the
# NumPy kernels against 7-9 ms on these.
_DELTA_BACKEND = python_backend()


def _inserted_rows_by_position(
    result: QueryResult,
    inserted: Mapping[str, Iterable[Row]],
) -> Dict[int, List[Row]]:
    """Genuinely new rows per atom position, deduplicated, arrival-ordered.

    One atom lookup per relation: rows live in the result's table, repeated
    rows and relations outside the query's atoms contribute nothing; an
    interned-but-dead row re-enters as a resurrection delta row.
    """
    by_position: Dict[int, List[Row]] = {}
    for name, rows in inserted.items():
        position = result.atom_position(name)
        if position is None:
            continue
        index = result.indexes[position]
        ids_get = index.ids.get
        live = index.live
        fresh = [
            row
            for row in dict.fromkeys(rows)
            if (tid := ids_get(row)) is None or not live[tid]
        ]
        if fresh:
            by_position[position] = fresh
    return by_position


def _delta_terms(
    result: QueryResult,
    by_position: Dict[int, List[Row]],
    extended: List[RelationIndex],
) -> Tuple[List[List[int]], List[Row]]:
    """All witnesses that use at least one inserted tuple.

    Returns ``(new_columns, new_rows)``: one appended tid column per atom,
    in the result's atom order, and each new witness's output row.  Terms
    run in ascending seed position.
    """
    query = result.query
    parent = result.indexes
    atoms = {atom.name: atom for atom in query.atoms}
    new_columns: List[List[int]] = [[] for _ in extended]
    new_rows: List[Row] = []
    for p in sorted(by_position):
        seed = atoms[result.atom_names[p]]
        body = (seed,) + tuple(atom for atom in query.atoms if atom is not seed)
        ordered = [body[i] for i in _join_order(ConjunctiveQuery(query.head, body))]
        positions = [result.atom_position(atom.name) for atom in ordered]
        delta = extended[p].only(by_position[p])
        tables = [
            delta if q == p else extended[q] if q < p else parent[q]
            for q in positions
        ]
        bound, columns = join_columns(
            ordered, tables, query.head, query_name=query.name, backend=_DELTA_BACKEND
        )
        if not len(columns[0]):
            continue  # an emptied join stops before binding the head
        for q, column in zip(positions, columns):
            new_columns[q].extend(column)
        if query.head:
            new_rows.extend(zip(*(bound[a] for a in query.head)))
        else:
            new_rows.extend([()] * len(columns[0]))
    return new_columns, new_rows


def delta_insert_result(
    result: QueryResult,
    inserted: Mapping[str, Iterable[Row]],
    tables: Optional[Mapping[str, RelationIndex]] = None,
) -> Optional[QueryResult]:
    """The post-insertion :class:`QueryResult`, derived without re-joining.

    Appends the witnesses created by ``inserted`` (relation name -> row
    tuples, the batch ``Session.apply_insertions`` normalizes once for
    every cached result; rows already live, repeats and relations outside
    the query are skipped): old witnesses stay
    verbatim, new ones are appended, and the result indexes the successor
    interning tables -- ``tables`` (relation name -> extended table, what
    ``Session.apply_insertions`` publishes) or, for a relation it lacks,
    the parent table :meth:`~RelationIndex.extended` by the batch.
    Equivalent to a fresh evaluation on the grown database up to
    witness/output *order*: the new witnesses sit at the end, where a fresh
    join emits them in join order, and a re-inserted row keeps its old tid
    (:meth:`~RelationIndex.extended` revives it) where a fresh interning
    numbers it last.  Witness sets, output sets and every provenance count
    are identical -- the parity contract of the differential mutation
    suite.  Returns the same
    object when no inserted row touches the query's atoms, and ``None``
    when the query has vacuum atoms -- inserting into an empty guard
    relation flips every potential witness at once, so the caller must
    re-evaluate.
    """
    with span("engine.delta.insert") as sp:
        if result.query.has_vacuum_relation:
            return None
        updated = result
        by_position = _inserted_rows_by_position(result, inserted)
        if by_position:
            extended = list(result.indexes)
            for position, rows in by_position.items():
                index = extended[position]
                if tables and index.name in tables:
                    extended[position] = tables[index.name]
                else:
                    extended[position] = index.extended(rows)
            new_columns, new_rows = _delta_terms(result, by_position, extended)
            if not new_rows:
                # No new witnesses, but the interning tables still move on:
                # later delta batches probe these indexes and must see
                # today's rows.  The witness columns, and so their postings,
                # are unchanged.
                updated = _rebased(result, extended)
            else:
                query = result.query
                output_rows = list(result.output_rows)
                output_index: Optional[Dict[Row, int]] = None
                appended_outputs: List[int] = []
                if query.is_full and query.head:
                    # A new witness uses a tuple no live witness uses, and a
                    # full CQ's output row determines its witness: every new
                    # witness brings a new output row, no lookup needed.
                    appended_outputs = list(
                        range(len(output_rows), len(output_rows) + len(new_rows))
                    )
                    output_rows.extend(new_rows)
                else:
                    # Factorize the new witnesses' outputs through the
                    # existing output table, appending only new rows.
                    output_index = dict(result.output_index)
                    for row in new_rows:
                        out = output_index.get(row)
                        if out is None:
                            out = len(output_rows)
                            output_index[row] = out
                            output_rows.append(row)
                        appended_outputs.append(out)
                ref_columns = result.ref_columns
                witness_outputs = result.witness_outputs
                postings: Optional[List[Optional[Postings]]] = None
                if is_ndarray(ref_columns[0]):
                    np = backend_of_column(ref_columns[0]).np
                    extras = [
                        np.asarray(extra, dtype=np.int64) for extra in new_columns
                    ]
                    ref_columns = [
                        np.concatenate([column, extra])
                        for column, extra in zip(ref_columns, extras)
                    ]
                    witness_outputs = np.concatenate([
                        witness_outputs,
                        np.asarray(appended_outputs, dtype=np.int64),
                    ])
                    postings = _carried_postings(
                        result, lambda atom, csr: csr.appended(extras[atom])
                    )
                else:
                    ref_columns = [
                        list(column) + extra
                        for column, extra in zip(ref_columns, new_columns)
                    ]
                    witness_outputs = list(witness_outputs) + appended_outputs
                updated = QueryResult(
                    query,
                    result.atom_names,
                    extended,
                    ref_columns,
                    witness_outputs,
                    output_rows,
                    output_index,
                    result.vacuum_refs,
                    postings,
                )
        if sp:
            sp.set(
                op="delta.insert",
                changed=updated is not result,
                witnesses_after=updated.witness_count(),
                outputs_after=updated.output_count(),
            )
    return updated


__all__ = [
    "delta_counts",
    "delta_filter_result",
    "delta_insert_result",
]
