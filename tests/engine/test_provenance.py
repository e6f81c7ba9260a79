"""Unit tests for the incremental provenance index."""

from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.provenance import ProvenanceIndex
from repro.query.parser import parse_query
from repro.session import Session


def build_index(query_text, schema, rows):
    query = parse_query(query_text)
    database = Database.from_dict(schema, rows)
    return ProvenanceIndex(Session(database).evaluate(query))


class TestProfitAndRemoval:
    def test_full_cq_profit_counts_witnesses(self):
        index = build_index(
            "Q(A, B) :- R1(A), R2(A, B)",
            {"R1": ["A"], "R2": ["A", "B"]},
            {"R1": [(1,), (2,)], "R2": [(1, 10), (1, 11), (2, 20)]},
        )
        assert index.profit(TupleRef("R1", (1,))) == 2
        assert index.profit(TupleRef("R1", (2,))) == 1
        assert index.profit(TupleRef("R2", (1, 10))) == 1

    def test_projected_profit_requires_all_witnesses(self):
        index = build_index(
            "Q(A) :- R1(A, B)",
            {"R1": ["A", "B"]},
            {"R1": [(1, 10), (1, 11), (2, 20)]},
        )
        # Output (1,) has two witnesses; removing one R1 tuple is not enough.
        assert index.profit(TupleRef("R1", (1, 10))) == 0
        assert index.profit(TupleRef("R1", (2, 20))) == 1

    def test_remove_and_counts(self):
        index = build_index(
            "Q(A) :- R1(A, B)",
            {"R1": ["A", "B"]},
            {"R1": [(1, 10), (1, 11), (2, 20)]},
        )
        assert index.total_outputs() == 2
        assert index.remove(TupleRef("R1", (1, 10))) == 0
        # Now (1,) has a single alive witness: the other tuple's profit is 1.
        assert index.profit(TupleRef("R1", (1, 11))) == 1
        assert index.remove(TupleRef("R1", (1, 11))) == 1
        assert index.removed_output_count() == 1
        assert index.alive_output_count() == 1

    def test_remove_is_idempotent(self):
        index = build_index(
            "Q(A) :- R1(A)", {"R1": ["A"]}, {"R1": [(1,), (2,)]}
        )
        ref = TupleRef("R1", (1,))
        assert index.remove(ref) == 1
        assert index.remove(ref) == 0
        assert index.removed_output_count() == 1

    def test_restore_and_reset(self):
        index = build_index(
            "Q(A) :- R1(A)", {"R1": ["A"]}, {"R1": [(1,), (2,)]}
        )
        ref = TupleRef("R1", (1,))
        index.remove(ref)
        assert index.restore(ref) == 1
        assert index.removed_output_count() == 0
        index.remove_many([TupleRef("R1", (1,)), TupleRef("R1", (2,))])
        assert index.removed_output_count() == 2
        index.reset()
        assert index.removed_output_count() == 0
        assert index.removed == set()

    def test_witness_gain(self):
        index = build_index(
            "Q(A) :- R1(A, B)",
            {"R1": ["A", "B"]},
            {"R1": [(1, 10), (1, 11)]},
        )
        ref = TupleRef("R1", (1, 10))
        assert index.witness_gain(ref) == 1
        index.remove(ref)
        assert index.witness_gain(ref) == 0

    def test_outputs_removed_by_is_stateless(self):
        index = build_index(
            "Q(A) :- R1(A)", {"R1": ["A"]}, {"R1": [(1,), (2,)]}
        )
        index.remove(TupleRef("R1", (1,)))
        # Stateless verification ignores the incremental state.
        assert index.outputs_removed_by([TupleRef("R1", (2,))]) == 1
        assert index.removed_output_count() == 1

    def test_refs_of_relation(self):
        index = build_index(
            "Q(A, B) :- R1(A), R2(A, B)",
            {"R1": ["A"], "R2": ["A", "B"]},
            {"R1": [(1,)], "R2": [(1, 10), (2, 20)]},
        )
        assert index.refs_of_relation("R1") == [TupleRef("R1", (1,))]
        # R2(2, 20) is dangling, so it does not participate.
        assert set(index.refs_of_relation("R2")) == {TupleRef("R2", (1, 10))}
