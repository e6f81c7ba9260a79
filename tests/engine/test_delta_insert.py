"""Unit tests for the insertion delta join.

``delta_insert_result`` must be observationally equivalent to a fresh
evaluation on the grown database: same output set, same witness set, same
provenance counts -- only the iteration order may differ: the delta
appends its new witnesses at the end where a fresh join emits them in join
order, and a re-inserted row keeps its old tid where a fresh interning
numbers it last.  On top of parity the suite
pins the *append invariant*: old witnesses, tids and output ids keep their
positions verbatim, and the grown result's postings match a fresh join's.
"""

import random

import pytest

from repro.data.database import Database
from repro.data.relation import Relation, TupleRef
from repro.engine.backend import numpy_available
from repro.engine.delta import delta_insert_result
from repro.engine.evaluate import EngineContext, evaluate_in_context
from repro.query.parser import parse_query
from repro.workloads.queries import Q1, Q6, QPATH_EXP
from repro.workloads.tpch import generate_tpch
from repro.workloads.zipf import generate_zipf_path

from tests.conftest import packed_columns, packed_outputs, repro_test_seed

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

#: Insertion-batch seeds: three fixed ones plus one drawn from
#: ``REPRO_TEST_SEED``, so each CI fuzz leg inserts a different batch.
BATCH_SEEDS = {"1": 1, "2": 2, "3": 3, "seeded": repro_test_seed()}


def _witness_set(result):
    return {w.refs for w in result.witnesses}


def _with_r4(database):
    """The Zipf path plus a small unary ``R4(C)`` no other atom joins."""
    database.add_relation(Relation("R4", ("C",), [(f"c{i}",) for i in range(5)]))
    return database


def _instances():
    return [
        ("tpch", Q1, generate_tpch(total_tuples=80, seed=7)),
        ("zipf", QPATH_EXP, generate_zipf_path(r2_tuples=100, alpha=0.5, seed=13)),
        ("zipf-easy", Q6, generate_zipf_path(r2_tuples=100, alpha=1.0, seed=13)),
        # A cross-product step: R4 shares no attribute with the path.
        (
            "disconnected",
            parse_query("Q(A, C) :- R1(A), R2(A, B), R4(C)"),
            _with_r4(generate_zipf_path(r2_tuples=60, alpha=0.8, seed=13)),
        ),
        (
            "boolean",
            parse_query("Q() :- R1(A), R2(A, B)"),
            generate_zipf_path(r2_tuples=60, alpha=0.8, seed=13),
        ),
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


def _by_relation(refs):
    """An insert batch as ``delta_insert_result`` takes it: relation name ->
    rows in arrival order, repeats and stored rows kept."""
    batch = {}
    for ref in refs:
        batch.setdefault(ref.relation, []).append(ref.values)
    return batch


def _grown(database, refs):
    copy = database.copy()
    copy.insert_tuples(refs)
    return copy


@pytest.mark.parametrize("name,query,database", INSTANCES, ids=IDS)
@pytest.mark.parametrize("seed", BATCH_SEEDS.values(), ids=BATCH_SEEDS.keys())
@pytest.mark.parametrize("backend", BACKENDS)
def test_delta_insert_matches_fresh_evaluation(backend, name, query, database, seed):
    context = EngineContext(backend=backend)
    base = context.evaluate(query, database)
    refs = _insertion_batch(query, database, seed)

    appended = delta_insert_result(base, _by_relation(refs))
    fresh = context.evaluate(query, _grown(database, refs), use_cache=False)

    assert set(appended.output_rows) == set(fresh.output_rows)
    assert _witness_set(appended) == _witness_set(fresh)
    assert appended.witness_count() == fresh.witness_count()
    assert appended.output_count() == fresh.output_count()
    assert appended.participating_refs() == fresh.participating_refs()


@pytest.mark.parametrize("name,query,database", INSTANCES, ids=IDS)
def test_delta_insert_appends_old_state_verbatim(name, query, database):
    base = evaluate_in_context(query, database)
    refs = _insertion_batch(query, database, seed=4)
    appended = delta_insert_result(base, _by_relation(refs))

    old_columns = packed_columns(base)
    new_columns = packed_columns(appended)
    for old, new in zip(old_columns, new_columns):
        assert new[: len(old)] == old  # old witnesses keep their positions
    old_outputs = packed_outputs(base)
    assert packed_outputs(appended)[: len(old_outputs)] == old_outputs
    assert appended.output_rows[: base.output_count()] == list(base.output_rows)
    # Old tids keep their meaning in the extended interning tables.
    for old_index, new_index in zip(
        base.indexes, appended.indexes
    ):
        assert new_index.rows[: len(old_index)] == old_index.rows


def test_delta_insert_irrelevant_returns_same_object():
    database = generate_tpch(total_tuples=60, seed=7)
    base = evaluate_in_context(Q1, database)
    assert delta_insert_result(base, {"R_nonexistent": [(1,)]}) is base
    assert delta_insert_result(base, {}) is base
    # Re-inserting an already-stored tuple is also a no-op.
    stored = sorted(base.participating_refs(), key=repr)[:2]
    assert delta_insert_result(base, _by_relation(stored)) is base


@pytest.mark.parametrize("backend", BACKENDS)
def test_delta_insert_skips_repeats_and_live_rows(backend):
    """A repeated row counts once and a row the result's table stores live
    adds nothing: a noisy batch grows the result exactly like its
    normalized form."""
    name, query, database = INSTANCES[1]
    base = EngineContext(backend=backend).evaluate(query, database)
    refs = _insertion_batch(query, database, seed=5)
    stored = sorted(base.participating_refs(), key=repr)[:3]
    noisy = delta_insert_result(base, _by_relation(stored + refs + refs[::-1] + stored))
    fresh = [
        ref for ref in dict.fromkeys(refs)
        if ref.values not in database.relation(ref.relation)
    ]
    clean = delta_insert_result(base, _by_relation(fresh))
    assert packed_columns(noisy) == packed_columns(clean)
    assert packed_outputs(noisy) == packed_outputs(clean)
    assert noisy.output_rows == clean.output_rows


def test_delta_insert_no_witness_batch_still_extends_indexes():
    """A batch with zero new witnesses must still grow the interning tables,
    or a later batch pairing with those rows would miss its witnesses."""
    database = Database.from_dict(
        {"R1": ["A"], "R2": ["A", "B"]},
        {"R1": [("a1",)], "R2": [("a1", "b1")]},
    )
    query = parse_query("Q(A, B) :- R1(A), R2(A, B)")
    base = evaluate_in_context(query, database)
    step1 = delta_insert_result(base, {"R1": [("a2",)]})
    assert step1 is not base
    assert step1.output_count() == base.output_count()
    step2 = delta_insert_result(step1, {"R2": [("a2", "b2")]})
    assert set(step2.output_rows) == {("a1", "b1"), ("a2", "b2")}


def test_delta_insert_vacuum_returns_none():
    query = parse_query("Q(A) :- R1(A), R0()")
    database = Database.from_dict(
        {"R1": ["A"], "R0": []}, {"R1": [(1,), (2,)], "R0": [()]}
    )
    base = evaluate_in_context(query, database)
    assert delta_insert_result(base, {"R1": [(3,)]}) is None


def test_delta_insert_migrated_postings_match_lazy_rebuild():
    name, query, database = INSTANCES[1]
    base = evaluate_in_context(query, database)
    # Build the parent's postings first: on ndarray provenance the grown
    # result inherits them with its appended positions spliced in (dict
    # postings are rebuilt lazily); either way they must match a fresh join.
    for position in range(base.atom_count()):
        base.postings_for_atom(position)
    refs = _insertion_batch(query, database, seed=7)
    appended = delta_insert_result(base, _by_relation(refs))

    rebuilt = evaluate_in_context(query, _grown(database, refs), use_cache=False)
    for position in range(appended.atom_count()):
        migrated = appended.postings_for_atom(position)
        # Same witness multiset per *tuple* (positions differ across objects:
        # compare through the interned rows and sorted posting sizes).
        index = appended.indexes[position]
        fresh_index = rebuilt.indexes[position]
        fresh_postings = rebuilt.postings_for_atom(position)
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


@pytest.mark.parametrize("seed", [8, repro_test_seed()], ids=["fixed", "seeded"])
def test_delta_insert_repeated_batches_compose(seed):
    name, query, database = INSTANCES[1]
    base = evaluate_in_context(query, database)
    batch1 = _insertion_batch(query, database, seed=seed, count=6)
    batch2 = _insertion_batch(query, database, seed=seed + 1, count=6)
    step = delta_insert_result(
        delta_insert_result(base, _by_relation(batch1)), _by_relation(batch2)
    )
    fresh = evaluate_in_context(
        query, _grown(_grown(database, batch1), batch2), use_cache=False
    )
    assert set(step.output_rows) == set(fresh.output_rows)
    assert _witness_set(step) == _witness_set(fresh)
    assert step.witness_count() == fresh.witness_count()


@pytest.mark.parametrize(
    "backend", ["python"] + (["numpy"] if numpy_available() else [])
)
def test_full_cq_insert_numbers_outputs_without_an_index(backend):
    """A full CQ's new witnesses each bring a new output row -- a revived
    dead row included -- so the grown result appends them without an
    output index, and still equals a fresh evaluation."""
    from repro.session import Session

    database = generate_zipf_path(r2_tuples=120, alpha=0.8, seed=13)
    edges = sorted(database.relation("R2").rows)
    a_values = sorted(row[0] for row in database.relation("R1").rows)
    with Session(database, backend=backend) as session:
        session.evaluate(Q6)
        dead = [TupleRef("R2", edge) for edge in edges[:6]]
        session.apply_deletions(dead + [TupleRef("R1", (a_values[-1],))])
        # Revive one deleted edge and one deleted R1 row next to fresh ones.
        batch = [
            dead[0],
            TupleRef("R1", (a_values[-1],)),
            TupleRef("R2", (a_values[0], "fresh-b")),
            TupleRef("R2", (a_values[1], edges[0][1])),
            TupleRef("R2", ("no-such-a", "fresh-b")),
        ]
        session.apply_insertions(batch)
        result = session.evaluate(Q6)
        assert result._output_index is None
        fresh = evaluate_in_context(Q6, database.copy(), use_cache=False)
        assert sorted(result.output_rows) == sorted(fresh.output_rows)
        assert result.output_count() == result.witness_count()
        assert result.output_index == {
            row: position for position, row in enumerate(result.output_rows)
        }
        assert set(result.output_index) == set(fresh.output_index)
        # Every witness produces the output row its tuples spell out.
        produced = {
            witness.refs: result.output_rows[out]
            for witness, out in zip(result.witnesses, result.witness_outputs)
        }
        expected = {
            witness.refs: fresh.output_rows[out]
            for witness, out in zip(fresh.witnesses, fresh.witness_outputs)
        }
        assert produced == expected
