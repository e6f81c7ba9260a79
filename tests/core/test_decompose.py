"""Unit tests for the Decompose dynamic program (Algorithm 5)."""

import pytest

from repro.core.adp import ADPSolver
from repro.core.bruteforce import bruteforce_optimum
from repro.core.decompose import DecomposeStrategy, decompose_curve
from repro.data.database import Database
from repro.query.parser import parse_query
from repro.session import Session


def child_curve():
    return ADPSolver()._curve  # noqa: SLF001 - intended recursion hook


@pytest.fixture
def disconnected_query():
    return parse_query("Q(A, B, C) :- R1(A), R2(A, B), R3(C)")


@pytest.fixture
def disconnected_db():
    return Database.from_dict(
        {"R1": ["A"], "R2": ["A", "B"], "R3": ["C"]},
        {
            "R1": [(1,), (2,)],
            "R2": [(1, 10), (1, 11), (2, 20)],
            "R3": [(100,), (200,)],
        },
    )


class TestDecomposeCurve:
    def test_requires_disconnected_query(self):
        query = parse_query("Q(A, B) :- R1(A), R2(A, B)")
        with pytest.raises(ValueError):
            decompose_curve(query, Database.empty_for_query(query), 1, child_curve())

    def test_matches_bruteforce(self, disconnected_query, disconnected_db):
        total = Session(disconnected_db).output_size(disconnected_query)
        assert total == 6
        curve = decompose_curve(disconnected_query, disconnected_db, total, child_curve())
        assert curve.optimal
        for k in range(1, total + 1):
            assert curve.cost(k) == bruteforce_optimum(disconnected_query, disconnected_db, k)

    def test_solutions_feasible(self, disconnected_query, disconnected_db):
        session = Session(disconnected_db)
        total = session.output_size(disconnected_query)
        curve = decompose_curve(disconnected_query, disconnected_db, total, child_curve())
        result = session.evaluate(disconnected_query)
        for k in range(1, total + 1):
            removed = curve.solution(k)
            assert len(removed) == curve.cost(k)
            assert result.outputs_removed_by(removed) >= k

    @pytest.mark.parametrize(
        "strategy",
        [DecomposeStrategy.FULL_ENUMERATION, DecomposeStrategy.PAIRWISE, DecomposeStrategy.IMPROVED_DP],
    )
    def test_strategies_agree(self, disconnected_query, disconnected_db, strategy):
        total = Session(disconnected_db).output_size(disconnected_query)
        baseline = decompose_curve(
            disconnected_query, disconnected_db, total, child_curve(),
            strategy=DecomposeStrategy.IMPROVED_DP,
        )
        other = decompose_curve(
            disconnected_query, disconnected_db, total, child_curve(), strategy=strategy
        )
        for k in range(1, total + 1):
            assert baseline.cost(k) == other.cost(k), (strategy, k)

    def test_three_components(self):
        query = parse_query("Q(A, B, C) :- R1(A), R2(B), R3(C)")
        database = Database.from_dict(
            {"R1": ["A"], "R2": ["B"], "R3": ["C"]},
            {"R1": [(1,), (2,)], "R2": [(1,), (2,)], "R3": [(1,), (2,), (3,)]},
        )
        total = Session(database).output_size(query)
        assert total == 12
        curve = decompose_curve(query, database, total, child_curve())
        for k in (1, 3, 6, 7, 12):
            assert curve.cost(k) == bruteforce_optimum(query, database, k), k

    def test_empty_component_gives_empty_result(self, disconnected_query):
        database = Database.from_dict(
            {"R1": ["A"], "R2": ["A", "B"], "R3": ["C"]},
            {"R1": [(1,)], "R2": [(1, 10)], "R3": []},
        )
        curve = decompose_curve(disconnected_query, database, 3, child_curve())
        assert curve.max_gain() == 0

    def test_cross_product_removal_counting(self):
        # Removing one output from a component of size 2 removes half of the
        # 2 x 3 = 6 product outputs.
        query = parse_query("Q(A, B) :- R1(A), R2(B)")
        database = Database.from_dict(
            {"R1": ["A"], "R2": ["B"]},
            {"R1": [(1,), (2,)], "R2": [(1,), (2,), (3,)]},
        )
        curve = decompose_curve(query, database, 6, child_curve())
        assert curve.cost(3) == 1   # drop one R1 value
        assert curve.cost(4) == 2   # drop one R1 value and one R2 value (4 = 3+2-1)
        assert curve.cost(6) == 2   # drop both R1 values
