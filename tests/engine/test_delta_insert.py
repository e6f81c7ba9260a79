"""Unit tests for the insertion delta join.

``delta_insert_result`` must be observationally equivalent to a fresh
evaluation on the grown database: same output set, same witness set, same
provenance counts -- only the (irrelevant) iteration order may differ,
because fresh joins walk mutated hash sets.  On top of parity the suite
pins the *append invariant*: old witnesses, tids and output ids keep their
positions verbatim, and the migrated postings match a lazy rebuild.
"""

import random

import pytest

from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.delta import (
    delta_insert_counts,
    delta_insert_result,
)
from repro.engine.evaluate import evaluate_in_context
from repro.query.parser import parse_query
from repro.workloads.queries import Q1, Q6, QPATH_EXP
from repro.workloads.tpch import generate_tpch
from repro.workloads.zipf import generate_zipf_path

from tests.conftest import packed_columns, packed_outputs


def _witness_set(result):
    return {w.refs for w in result.witnesses}


def _instances():
    return [
        ("tpch", Q1, generate_tpch(total_tuples=80, seed=7)),
        ("zipf", QPATH_EXP, generate_zipf_path(r2_tuples=100, alpha=0.5, seed=13)),
        ("zipf-easy", Q6, generate_zipf_path(r2_tuples=100, alpha=1.0, seed=13)),
    ]


INSTANCES = _instances()
IDS = [name for name, _, _ in INSTANCES]


def _insertion_batch(query, database, seed, count=12):
    """Deterministic fresh tuples recombined from existing column values.

    Recombination (old value in one column, old value in another) makes a
    healthy fraction of the inserts actually join; a sprinkle of brand-new
    values exercises the no-witness and partially-matched paths.
    """
    rng = random.Random(seed)
    refs = []
    names = list(query.relation_names)
    for i in range(count):
        name = names[i % len(names)]
        relation = database.relation(name)
        rows = sorted(relation.rows)
        values = []
        for position in range(len(relation.attributes)):
            if rows and rng.random() < 0.8:
                values.append(rng.choice(rows)[position])
            else:
                values.append(f"new{seed}_{i}_{position}")
        refs.append(TupleRef(name, tuple(values)))
    return refs


def _grown(database, refs):
    copy = database.copy()
    copy.insert_tuples(refs)
    return copy


@pytest.mark.parametrize("name,query,database", INSTANCES, ids=IDS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_delta_insert_matches_fresh_evaluation(name, query, database, seed):
    base = evaluate_in_context(query, database)
    refs = _insertion_batch(query, database, seed)

    appended = delta_insert_result(base, refs)
    fresh = evaluate_in_context(query, _grown(database, refs), use_cache=False)

    assert set(appended.output_rows) == set(fresh.output_rows)
    assert _witness_set(appended) == _witness_set(fresh)
    assert appended.witness_count() == fresh.witness_count()
    assert appended.output_count() == fresh.output_count()
    assert appended.participating_refs() == fresh.participating_refs()


@pytest.mark.parametrize("name,query,database", INSTANCES, ids=IDS)
def test_delta_insert_appends_old_state_verbatim(name, query, database):
    base = evaluate_in_context(query, database)
    refs = _insertion_batch(query, database, seed=4)
    appended = delta_insert_result(base, refs)

    old_columns = packed_columns(base.provenance)
    new_columns = packed_columns(appended.provenance)
    for old, new in zip(old_columns, new_columns):
        assert new[: len(old)] == old  # old witnesses keep their positions
    old_outputs = packed_outputs(base.provenance)
    assert packed_outputs(appended.provenance)[: len(old_outputs)] == old_outputs
    assert appended.output_rows[: base.output_count()] == list(base.output_rows)
    # Old tids keep their meaning in the extended interning tables.
    for old_index, new_index in zip(
        base.provenance.indexes, appended.provenance.indexes
    ):
        assert new_index.rows[: len(old_index)] == old_index.rows


def test_delta_insert_counts_match_materialization():
    name, query, database = INSTANCES[1]
    base = evaluate_in_context(query, database)
    refs = _insertion_batch(query, database, seed=5)
    witnesses_added, outputs_added = delta_insert_counts(base, refs)
    appended = delta_insert_result(base, refs)
    assert witnesses_added == appended.witness_count() - base.witness_count()
    assert outputs_added == appended.output_count() - base.output_count()
    assert delta_insert_counts(base, []) == (0, 0)


def test_delta_insert_irrelevant_returns_same_object():
    database = generate_tpch(total_tuples=60, seed=7)
    base = evaluate_in_context(Q1, database)
    unknown = [TupleRef("R_nonexistent", (1,))]
    assert delta_insert_result(base, unknown) is base
    assert delta_insert_result(base, []) is base
    # Re-inserting an already-stored tuple is also a no-op.
    stored = sorted(base.participating_refs(), key=repr)[:2]
    assert delta_insert_result(base, stored) is base


def test_delta_insert_no_witness_batch_still_extends_indexes():
    """A batch with zero new witnesses must still grow the interning tables,
    or a later batch pairing with those rows would miss its witnesses."""
    database = Database.from_dict(
        {"R1": ["A"], "R2": ["A", "B"]},
        {"R1": [("a1",)], "R2": [("a1", "b1")]},
    )
    query = parse_query("Q(A, B) :- R1(A), R2(A, B)")
    base = evaluate_in_context(query, database)
    step1 = delta_insert_result(base, [TupleRef("R1", ("a2",))])
    assert step1 is not base
    assert step1.output_count() == base.output_count()
    step2 = delta_insert_result(step1, [TupleRef("R2", ("a2", "b2"))])
    assert set(step2.output_rows) == {("a1", "b1"), ("a2", "b2")}


def test_delta_insert_vacuum_returns_none():
    query = parse_query("Q(A) :- R1(A), R0()")
    database = Database.from_dict(
        {"R1": ["A"], "R0": []}, {"R1": [(1,), (2,)], "R0": [()]}
    )
    base = evaluate_in_context(query, database)
    assert delta_insert_result(base, [TupleRef("R1", (3,))]) is None
    with pytest.raises(ValueError):
        delta_insert_counts(base, [TupleRef("R1", (3,))])


def test_delta_insert_migrated_postings_match_lazy_rebuild():
    name, query, database = INSTANCES[1]
    base = evaluate_in_context(query, database)
    # Force the parent's postings so the delta migrates instead of deferring.
    for position in range(base.provenance.atom_count()):
        base.provenance.postings_for_atom(position)
    refs = _insertion_batch(query, database, seed=7)
    appended = delta_insert_result(base, refs)

    rebuilt = evaluate_in_context(query, _grown(database, refs), use_cache=False)
    for position in range(appended.provenance.atom_count()):
        migrated = appended.provenance.postings_for_atom(position)
        # Same witness multiset per *tuple* (positions differ across objects:
        # compare through the interned rows and sorted posting sizes).
        index = appended.provenance.indexes[position]
        fresh_index = rebuilt.provenance.indexes[position]
        fresh_postings = rebuilt.provenance.postings_for_atom(position)
        by_row = {
            index.rows[tid]: len(hits) for tid, hits in migrated.items() if len(hits)
        }
        fresh_by_row = {
            fresh_index.rows[tid]: len(hits)
            for tid, hits in fresh_postings.items()
            if len(hits)
        }
        assert by_row == fresh_by_row


def test_insert_after_delete_never_pairs_with_dead_rows():
    """Interned rows deleted by apply_deletions must not match the delta
    join: interning tables are append-only, so liveness comes from the
    database, not from the index."""
    from repro.session import Session

    database = Database.from_dict(
        {"R1": ["A"], "R2": ["A", "B"]},
        {"R1": [("a1",), ("a2",)], "R2": [("a1", "b1")]},
    )
    query = parse_query("Q(A, B) :- R1(A), R2(A, B)")
    with Session(database) as session:
        session.evaluate(query)
        session.apply_deletions([TupleRef("R1", ("a2",))])
        # a2 is gone: this R2 edge must create no witness.
        session.apply_insertions([TupleRef("R2", ("a2", "b2"))])
        result = session.evaluate(query)
        assert set(result.output_rows) == {("a1", "b1")}
        fresh = evaluate_in_context(query, database.copy(), use_cache=False)
        assert set(result.output_rows) == set(fresh.output_rows)


def test_reinserting_deleted_row_resurrects_witnesses():
    """A deleted row re-enters as a delta row under its existing tid."""
    from repro.session import Session

    database = Database.from_dict(
        {"R1": ["A"], "R2": ["A", "B"]},
        {"R1": [("a1",), ("a2",)], "R2": [("a1", "b1"), ("a2", "b2")]},
    )
    query = parse_query("Q(A, B) :- R1(A), R2(A, B)")
    with Session(database) as session:
        session.evaluate(query)
        session.apply_deletions([TupleRef("R1", ("a2",))])
        assert set(session.evaluate(query).output_rows) == {("a1", "b1")}
        added = session.apply_insertions([TupleRef("R1", ("a2",))])
        assert added == 1
        result = session.evaluate(query)
        assert set(result.output_rows) == {("a1", "b1"), ("a2", "b2")}
        # ... and without duplicated witnesses.
        fresh = evaluate_in_context(query, database.copy(), use_cache=False)
        assert result.witness_count() == fresh.witness_count()


def test_delta_insert_repeated_batches_compose():
    name, query, database = INSTANCES[1]
    base = evaluate_in_context(query, database)
    batch1 = _insertion_batch(query, database, seed=8, count=6)
    batch2 = _insertion_batch(query, database, seed=9, count=6)
    step = delta_insert_result(delta_insert_result(base, batch1), batch2)
    fresh = evaluate_in_context(
        query, _grown(_grown(database, batch1), batch2), use_cache=False
    )
    assert set(step.output_rows) == set(fresh.output_rows)
    assert _witness_set(step) == _witness_set(fresh)
    assert step.witness_count() == fresh.witness_count()
