"""Unit tests for the incremental provenance index (dense ref-ID API)."""

import pytest

from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.backend import numpy_available
from repro.engine.provenance import ProvenanceIndex
from repro.query.parser import parse_query
from repro.session import Session


@pytest.fixture(
    params=[
        "python",
        pytest.param(
            "numpy",
            marks=pytest.mark.skipif(not numpy_available(), reason="numpy unavailable"),
        ),
    ]
)
def build_index(request):
    def build(query_text, schema, rows):
        query = parse_query(query_text)
        database = Database.from_dict(schema, rows)
        with Session(database, backend=request.param) as session:
            return ProvenanceIndex(session.evaluate(query))

    return build


def rid_of(index, relation, values):
    """The rid of one participating tuple, found through ``relation_rows``."""
    rids, rows = index.relation_rows(relation)
    return rids[rows.index(values)]


class TestProfitAndRemoval:
    def test_full_cq_profit_counts_witnesses(self, build_index):
        index = build_index(
            "Q(A, B) :- R1(A), R2(A, B)",
            {"R1": ["A"], "R2": ["A", "B"]},
            {"R1": [(1,), (2,)], "R2": [(1, 10), (1, 11), (2, 20)]},
        )
        assert index.profit_id(rid_of(index, "R1", (1,))) == 2
        assert index.profit_id(rid_of(index, "R1", (2,))) == 1
        assert index.profit_id(rid_of(index, "R2", (1, 10))) == 1

    def test_projected_profit_requires_all_witnesses(self, build_index):
        index = build_index(
            "Q(A) :- R1(A, B)",
            {"R1": ["A", "B"]},
            {"R1": [(1, 10), (1, 11), (2, 20)]},
        )
        # Output (1,) has two witnesses; removing one R1 tuple is not enough.
        assert index.profit_id(rid_of(index, "R1", (1, 10))) == 0
        assert index.profit_id(rid_of(index, "R1", (2, 20))) == 1

    def test_remove_and_counts(self, build_index):
        index = build_index(
            "Q(A) :- R1(A, B)",
            {"R1": ["A", "B"]},
            {"R1": [(1, 10), (1, 11), (2, 20)]},
        )
        assert index.result.output_count() == 2
        assert index.remove_id(rid_of(index, "R1", (1, 10))) == 0
        # Now (1,) has a single alive witness: the other tuple's profit is 1.
        other = rid_of(index, "R1", (1, 11))
        assert index.profit_id(other) == 1
        assert index.touched_outputs_id(other) == 1
        assert index.remove_id(other) == 1
        assert index.removed_output_count() == 1
        assert index.profit_id(other) == 0
        assert index.touched_outputs_id(other) == 0

    def test_remove_is_idempotent(self, build_index):
        index = build_index(
            "Q(A) :- R1(A)", {"R1": ["A"]}, {"R1": [(1,), (2,)]}
        )
        rid = rid_of(index, "R1", (1,))
        assert index.remove_id(rid) == 1
        assert index.remove_id(rid) == 0
        assert index.removed_output_count() == 1

    def test_restore(self, build_index):
        index = build_index(
            "Q(A) :- R1(A)", {"R1": ["A"]}, {"R1": [(1,), (2,)]}
        )
        rid = rid_of(index, "R1", (1,))
        assert index.restore_id(rid) == 0  # not removed: a no-op
        index.remove_id(rid)
        assert index.restore_id(rid) == 1
        assert index.removed_output_count() == 0
        for rid in range(index.ref_count()):
            index.remove_id(rid)
        assert index.removed_output_count() == 2
        for rid in range(index.ref_count()):
            index.restore_id(rid)
        assert index.removed_output_count() == 0
        assert [index.profit_id(rid) for rid in range(index.ref_count())] == [1, 1]

    def test_witness_gain(self, build_index):
        index = build_index(
            "Q(A) :- R1(A, B)",
            {"R1": ["A", "B"]},
            {"R1": [(1, 10), (1, 11)]},
        )
        rid = rid_of(index, "R1", (1, 10))
        assert index.witness_gain_id(rid) == 1
        index.remove_id(rid)
        assert index.witness_gain_id(rid) == 0

    def test_verification_ignores_the_deletion_state(self, build_index):
        index = build_index(
            "Q(A) :- R1(A)", {"R1": ["A"]}, {"R1": [(1,), (2,)]}
        )
        index.remove_id(rid_of(index, "R1", (1,)))
        # Stateless verification ignores the incremental state.
        assert index.result.outputs_removed_by([TupleRef("R1", (2,))]) == 1
        assert index.removed_output_count() == 1

    def test_relation_rows(self, build_index):
        index = build_index(
            "Q(A, B) :- R1(A), R2(A, B)",
            {"R1": ["A"], "R2": ["A", "B"]},
            {"R1": [(1,)], "R2": [(1, 10), (2, 20)]},
        )
        assert index.relation_rows("R1") == (range(0, 1), [(1,)])
        # R2(2, 20) is dangling, so it does not participate.
        assert index.relation_rows("R2") == (range(1, 2), [(1, 10)])
        assert index.relation_rows("Missing") == (range(0), [])
        assert index.relation_names() == ["R1", "R2"]
        assert [index.ref_at(rid) for rid in range(index.ref_count())] == [
            TupleRef("R1", (1,)),
            TupleRef("R2", (1, 10)),
        ]

    def test_vacuum_tuple_takes_the_last_rid(self, build_index):
        index = build_index(
            "Q(A) :- R1(A), V()",
            {"R1": ["A"], "V": []},
            {"R1": [(1,), (2,)], "V": [()]},
        )
        assert index.relation_names() == ["R1", "V"]
        assert index.relation_rows("V") == (range(2, 3), [()])
        assert index.ref_at(2) == TupleRef("V", ())
        assert index.profit_id(2) == 2
        assert index.remove_id(2) == 2
