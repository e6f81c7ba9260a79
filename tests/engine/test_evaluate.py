"""Unit tests for CQ evaluation with witness provenance.

The running example of Figure 1 of the paper is used as ground truth for the
chain join Q1 (full) and Q2 (projected).
"""

import pytest

from repro.data.database import Database
from repro.data.relation import Relation, TupleRef
from repro.engine.evaluate import output_size
from repro.query.parser import parse_query
from repro.session import Session


class TestFigure1:
    def test_full_query_results(self, figure1_full_query, figure1_database):
        result = Session(figure1_database).evaluate(figure1_full_query)
        expected = {
            ("a1", "b1", "c1", "e1"),
            ("a2", "b2", "c2", "e3"),
            ("a2", "b2", "c3", "e3"),
            ("a3", "b3", "c3", "e3"),
        }
        assert set(result.output_rows) == expected
        # For a full CQ every witness is a distinct output tuple.
        assert result.witness_count() == 4

    def test_projected_query_results(self, figure1_projected_query, figure1_database):
        result = Session(figure1_database).evaluate(figure1_projected_query)
        assert set(result.output_rows) == {("a1", "e1"), ("a2", "e3"), ("a3", "e3")}
        # (a2, e3) has two witnesses (via c2 and via c3).
        assert result.witness_count() == 4
        witnesses = result.witnesses_of(("a2", "e3"))
        assert len(witnesses) == 2

    def test_paper_adp_example(self, figure1_full_query, figure1_database):
        # ADP(Q1, D, 2) removes R3(c3, e3): check that deleting it removes the
        # last two output tuples (the motivating example of Section 3.2).
        result = Session(figure1_database).evaluate(figure1_full_query)
        assert result.outputs_removed_by([TupleRef("R3", ("c3", "e3"))]) == 2


class TestEvaluationSemantics:
    def test_empty_relation_empties_result(self):
        query = parse_query("Q(A, B) :- R1(A), R2(A, B)")
        database = Database.from_dict({"R1": ["A"], "R2": ["A", "B"]},
                                      {"R1": [], "R2": [(1, 2)]})
        assert output_size(query, database) == 0

    def test_projection_deduplicates(self):
        query = parse_query("Q(A) :- R1(A, B)")
        database = Database.from_dict({"R1": ["A", "B"]}, {"R1": [(1, 1), (1, 2), (2, 1)]})
        result = Session(database).evaluate(query)
        assert set(result.output_rows) == {(1,), (2,)}
        assert result.witness_count() == 3

    def test_boolean_query_true_and_false(self):
        query = parse_query("Q() :- R1(A), R2(A)")
        true_db = Database.from_dict({"R1": ["A"], "R2": ["A"]}, {"R1": [(1,)], "R2": [(1,)]})
        false_db = Database.from_dict({"R1": ["A"], "R2": ["A"]}, {"R1": [(1,)], "R2": [(2,)]})
        assert Session(true_db).evaluate(query).output_rows == [()]
        assert Session(false_db).evaluate(query).output_rows == []

    def test_cross_product_of_disconnected_query(self):
        query = parse_query("Q(A, B) :- R1(A), R2(B)")
        database = Database.from_dict({"R1": ["A"], "R2": ["B"]},
                                      {"R1": [(1,), (2,)], "R2": [(10,), (20,), (30,)]})
        assert output_size(query, database) == 6

    def test_vacuum_relation_true(self):
        query = parse_query("Q(A) :- R1(A), R0()")
        database = Database.from_dict({"R1": ["A"], "R0": []},
                                      {"R1": [(1,)], "R0": [()]})
        result = Session(database).evaluate(query)
        assert result.output_rows == [(1,)]
        # The vacuum tuple participates in the witness.
        assert TupleRef("R0", ()) in result.witnesses[0].refs

    def test_vacuum_relation_false(self):
        query = parse_query("Q(A) :- R1(A), R0()")
        database = Database.from_dict({"R1": ["A"], "R0": []}, {"R1": [(1,)], "R0": []})
        assert output_size(query, database) == 0

    def test_relation_column_order_differs_from_atom(self):
        # The stored column order may differ from the atom's argument order;
        # matching is by name.
        query = parse_query("Q(A, B) :- R1(A, B)")
        database = Database([Relation("R1", ("B", "A"), [(2, 1)])])
        result = Session(database).evaluate(query)
        assert result.output_rows == [(1, 2)]

    def test_max_witnesses_guard(self):
        query = parse_query("Q(A, B) :- R1(A), R2(B)")
        database = Database.from_dict({"R1": ["A"], "R2": ["B"]},
                                      {"R1": [(i,) for i in range(20)],
                                       "R2": [(i,) for i in range(20)]})
        with pytest.raises(RuntimeError):
            Session(database).evaluate(query, max_witnesses=100)


class TestOutputsRemovedBy:
    def test_projected_output_needs_all_witnesses_hit(self, figure1_projected_query, figure1_database):
        result = Session(figure1_database).evaluate(figure1_projected_query)
        # Removing only R2(b2, c2) does not remove (a2, e3): the witness via
        # c3 survives.
        assert result.outputs_removed_by([TupleRef("R2", ("b2", "c2"))]) == 0
        # Removing both middle tuples kills it.
        removed = result.outputs_removed_by(
            [TupleRef("R2", ("b2", "c2")), TupleRef("R2", ("b2", "c3"))]
        )
        assert removed == 1

    def test_removing_nothing_removes_nothing(self, figure1_full_query, figure1_database):
        result = Session(figure1_database).evaluate(figure1_full_query)
        assert result.outputs_removed_by([]) == 0

    def test_participating_refs(self, figure1_full_query, figure1_database):
        result = Session(figure1_database).evaluate(figure1_full_query)
        refs = result.participating_refs()
        assert TupleRef("R1", ("a1", "b1")) in refs
        # Every tuple of Figure 1 participates in some witness.
        assert len(refs) == 10
