"""Unit tests for the Boolean (resilience) base case: linearisation + min cut."""

import pytest

from repro.core.boolean_cq import linear_order, min_cut_curve
from repro.core.bruteforce import bruteforce_optimum
from repro.data.database import Database
from repro.query.parser import parse_query
from repro.session import Session


class TestLinearOrder:
    def test_chain_is_linear(self):
        query = parse_query("Q() :- R1(A), R2(A, B), R3(B)")
        order = linear_order(query)
        assert order is not None
        # R2 must sit between R1 and R3.
        assert order.index("R2") == 1

    def test_triangle_is_not_linear(self):
        query = parse_query("Q() :- R1(A, B), R2(B, C), R3(C, A)")
        assert linear_order(query) is None

    def test_two_atoms_are_always_linear(self):
        query = parse_query("Q() :- R1(A), R2(A, B)")
        assert linear_order(query) == ["R1", "R2"]

    def test_attribute_spanning_three_atoms(self):
        query = parse_query("Q() :- R1(A), R2(A, B), R3(A, B, C)")
        order = linear_order(query)
        assert order is not None


class TestMinCut:
    def test_path_resilience(self):
        # Boolean Qpath: the bipartite-vertex-cover instance of the paper.
        query = parse_query("Q() :- R1(A), R2(A, B), R3(B)")
        database = Database.from_dict(
            {"R1": ["A"], "R2": ["A", "B"], "R3": ["B"]},
            {
                "R1": [("a1",), ("a2",)],
                "R2": [("a1", "b1"), ("a2", "b1"), ("a2", "b2")],
                "R3": [("b1",), ("b2",)],
            },
        )
        curve = min_cut_curve(query, database)
        assert curve.optimal
        assert curve.cost(1) == 2
        # The cut must actually falsify the query.
        removed = curve.solution(1)
        assert Session(database.without(removed)).evaluate(query).output_count() == 0

    def test_exogenous_tuples_never_cut(self):
        query = parse_query("Q() :- R1(A), R2(A, B), R3(B)")
        database = Database.from_dict(
            {"R1": ["A"], "R2": ["A", "B"], "R3": ["B"]},
            {
                "R1": [("a1",)],
                "R2": [("a1", "b1"), ("a1", "b2")],
                "R3": [("b1",), ("b2",)],
            },
        )
        curve = min_cut_curve(query, database)
        assert curve.cost(1) == 1
        assert {ref.relation for ref in curve.solution(1)} <= {"R1", "R3"}

    def test_matches_bruteforce_on_random_chains(self):
        import random

        query = parse_query("Q() :- R1(A), R2(A, B), R3(B)")
        rng = random.Random(5)
        for _ in range(10):
            database = Database.from_dict(
                {"R1": ["A"], "R2": ["A", "B"], "R3": ["B"]},
                {
                    "R1": [(a,) for a in range(3) if rng.random() < 0.8],
                    "R2": [(a, b) for a in range(3) for b in range(3) if rng.random() < 0.5],
                    "R3": [(b,) for b in range(3) if rng.random() < 0.8],
                },
            )
            if Session(database).output_size(query) == 0:
                continue
            curve = min_cut_curve(query, database)
            assert curve.cost(1) == bruteforce_optimum(query, database, 1)

    def test_false_query_needs_nothing(self):
        query = parse_query("Q() :- R1(A), R2(A)")
        database = Database.from_dict({"R1": ["A"], "R2": ["A"]},
                                      {"R1": [(1,)], "R2": [(2,)]})
        curve = min_cut_curve(query, database)
        assert curve.cost(0) == 0
        assert curve.max_gain() == 0

    def test_disconnected_boolean_query(self):
        # Resilience of a disconnected boolean query = cheapest component.
        query = parse_query("Q() :- R1(A), R2(B)")
        database = Database.from_dict(
            {"R1": ["A"], "R2": ["B"]},
            {"R1": [(1,), (2,), (3,)], "R2": [(10,), (20,)]},
        )
        curve = min_cut_curve(query, database)
        assert curve.cost(1) == 2

    def test_rejects_non_boolean(self):
        with pytest.raises(ValueError):
            min_cut_curve(
                parse_query("Q(A) :- R1(A)"),
                Database.from_dict({"R1": ["A"]}, {"R1": [(1,)]}),
            )

    def test_rejects_bad_order(self):
        query = parse_query("Q() :- R1(A), R2(A, B), R3(B)")
        database = Database.from_dict(
            {"R1": ["A"], "R2": ["A", "B"], "R3": ["B"]},
            {"R1": [(1,)], "R2": [(1, 2)], "R3": [(2,)]},
        )
        with pytest.raises(ValueError):
            min_cut_curve(query, database, order=["R1", "R3", "R2"])
