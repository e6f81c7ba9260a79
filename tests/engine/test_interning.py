"""Interning reuses the relation's own row numbering.

``RelationIndex(relation)`` must produce exactly the table an
``enumerate`` over the relation's iteration order builds -- ``rows``,
``ids`` (order and values) and the tids -- whether the relation hands
over its stored insertion ordinals (no tuple removed since construction or
``clear()``) or the positions are renumbered.  Each step below says which
of the two paths it takes (``_next_ordinal == len`` is the dense case).
"""

import pytest

from repro.data.database import Database
from repro.data.relation import Relation, TupleRef
from repro.engine.columnar import RelationIndex
from repro.session import Session
from repro.storage import OP_DELETE, OP_INSERT, DatabaseStore


def assert_enumerated(relation, dense):
    """The index equals the ``enumerate``-built table, on the expected path."""
    assert (relation._next_ordinal == len(relation)) is dense
    index = RelationIndex(relation)
    rows = list(relation)
    assert index.rows == rows
    assert list(index.ids.items()) == [(row, tid) for tid, row in enumerate(rows)]
    assert index.live_count == len(rows) and not index.dead_count
    # Interning hands out fresh containers: growing them leaves the
    # relation alone.
    index.ids[("probe",) * len(relation.attributes)] = len(rows)
    index.rows.append(None)
    assert list(relation) == rows


def test_every_mutation_keeps_the_enumerated_numbering():
    relation = Relation("R", ("A", "B"), [(i, i % 3) for i in range(6)])
    assert_enumerated(relation, dense=True)
    relation.insert((6, 0))
    relation.insert((0, 0))  # already stored: a no-op
    assert_enumerated(relation, dense=True)
    relation.remove((2, 2))
    assert_enumerated(relation, dense=False)
    relation.insert((2, 2))  # re-inserted: now last in iteration order
    assert_enumerated(relation, dense=False)
    assert list(relation)[-1] == (2, 2)
    copy = relation.copy()
    assert_enumerated(copy, dense=True)
    assert list(copy) == list(relation)
    relation.clear()
    assert_enumerated(relation, dense=True)
    relation.insert_many([(9, 9), (8, 8)])
    assert_enumerated(relation, dense=True)


def test_vacuum_and_empty_relations():
    assert_enumerated(Relation("E", ("A",)), dense=True)
    vacuum = Relation("V", (), [()])
    assert_enumerated(vacuum, dense=True)
    vacuum.remove(())
    assert_enumerated(vacuum, dense=False)


def _store_round(tmp_path, deletes):
    """Write a store for a small database (optionally after one delete
    batch, compacted into the snapshot), then recover it."""
    database = Database.from_dict(
        {"R1": ["A"], "R2": ["A", "B"]},
        {"R1": [(i,) for i in range(5)], "R2": [(i, i + 1) for i in range(5)]},
    )
    store = DatabaseStore(tmp_path, compact_after=1)
    with Session(database) as session:
        session.evaluate("Q(A, B) :- R1(A), R2(A, B)")
        store.initialize("db", session, 1)
        if deletes:
            session.apply_deletions(deletes)
            store.record_mutation("db", session, OP_DELETE, deletes, 2)
            inserts = [TupleRef("R1", (7,))]
            session.apply_insertions(inserts)
            store.record_mutation("db", session, OP_INSERT, inserts, 3)
        expected = {rel.name: list(rel) for rel in session.database}
    store.close()
    store = DatabaseStore(tmp_path, compact_after=1)
    recovered = store.load("db")
    return store, recovered, expected


@pytest.mark.parametrize("deleted", [False, True], ids=["dense", "renumbered"])
def test_recovered_relations_keep_the_enumerated_numbering(tmp_path, deleted):
    deletes = [TupleRef("R1", (1,)), TupleRef("R2", (3, 4))] if deleted else []
    store, recovered, expected = _store_round(tmp_path, deletes)
    try:
        for relation in recovered.session.database:
            assert list(relation) == expected[relation.name]
            assert_enumerated(relation, dense=not (deleted and relation.name in {"R1", "R2"}))
    finally:
        recovered.session.close()
        store.close()
