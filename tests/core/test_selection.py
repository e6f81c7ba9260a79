"""Unit tests for the selection extension (Section 7.5 / Lemma 12)."""


from repro.core.bruteforce import bruteforce_optimum
from repro.core.selection import (
    Selection,
    is_poly_time_with_selection,
    selected_output_size,
    solve_with_selection,
)
from repro.data.database import Database
from repro.query.parser import parse_query
from repro.session import Session


Q1 = parse_query("Q1(NK, SK, PK, OK) :- Supplier(NK, SK), PartSupp(SK, PK), LineItem(OK, PK)")


def tpch_micro():
    return Database.from_dict(
        {"Supplier": ["NK", "SK"], "PartSupp": ["SK", "PK"], "LineItem": ["OK", "PK"]},
        {
            "Supplier": [(1, "s1"), (1, "s2"), (2, "s3")],
            "PartSupp": [("s1", "p1"), ("s1", "p2"), ("s2", "p1"), ("s3", "p2")],
            "LineItem": [(100, "p1"), (101, "p1"), (102, "p2")],
        },
    )


class TestSelectionBasics:
    def test_selected_attributes_and_str(self):
        selection = Selection.equals({"PK": "p1"})
        assert selection.selected_attributes == {"PK"}
        assert "PK" in str(selection)

    def test_residual_query_drops_selected_attributes(self):
        selection = Selection.equals({"PK": "p1"})
        residual = selection.residual_query(Q1)
        assert "PK" not in residual.attributes
        assert residual.atom("LineItem").attributes == ("OK",)

    def test_apply_filters_every_relation_with_the_attribute(self):
        selection = Selection.equals({"PK": "p1"})
        filtered = selection.apply(Q1, tpch_micro())
        assert all(row[1] == "p1" for row in filtered.relation("PartSupp"))
        assert all(row[1] == "p1" for row in filtered.relation("LineItem"))
        assert len(filtered.relation("Supplier")) == 3  # untouched

    def test_selected_output_size(self):
        assert selected_output_size(Q1, Selection.equals({"PK": "p1"}), tpch_micro()) == 4


class TestLemma12:
    def test_selection_makes_q1_poly_time(self):
        from repro.core.decidability import is_poly_time

        assert not is_poly_time(Q1)
        assert is_poly_time_with_selection(Q1, Selection.equals({"PK": "p1"}))

    def test_selection_on_non_critical_attribute_keeps_hardness(self):
        # Selecting NK leaves the hard PartSupp-LineItem structure intact.
        assert not is_poly_time_with_selection(Q1, Selection.equals({"NK": 1}))


class TestSolveWithSelection:
    def test_solution_refers_to_original_tuples(self):
        database = tpch_micro()
        selection = Selection.equals({"PK": "p1"})
        solution = solve_with_selection(Q1, selection, database, k=2)
        assert solution.optimal
        for ref in solution.removed:
            assert database.contains_ref(ref)

    def test_removal_actually_removes_selected_outputs(self):
        database = tpch_micro()
        selection = Selection.equals({"PK": "p1"})
        before = selected_output_size(Q1, selection, database)
        solution = solve_with_selection(Q1, selection, database, k=2)
        after = selected_output_size(Q1, selection, database.without(solution.removed))
        assert before - after >= 2

    def test_matches_bruteforce_on_filtered_instance(self):
        database = tpch_micro()
        selection = Selection.equals({"PK": "p1"})
        filtered = selection.apply(Q1, database)
        total = Session(filtered).output_size(Q1)
        for k in range(1, total + 1):
            solution = solve_with_selection(Q1, selection, database, k=k)
            assert solution.size == bruteforce_optimum(Q1, filtered, k)

    def test_counting_solver_passthrough(self):
        from repro.core.adp import ADPSolver

        database = tpch_micro()
        selection = Selection.equals({"PK": "p1"})
        counting = solve_with_selection(
            Q1, selection, database, k=2, solver=ADPSolver(counting_only=True)
        )
        reporting = solve_with_selection(Q1, selection, database, k=2)
        assert counting.size == reporting.size
        assert counting.removed == frozenset()
