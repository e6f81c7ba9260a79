"""Unit tests for the Universe dynamic program (Algorithm 4)."""

import pytest

from repro.core.adp import ADPSolver
from repro.core.bruteforce import bruteforce_optimum
from repro.core.universe import UniverseStrategy, universe_curve
from repro.data.database import Database
from repro.query.parser import parse_query
from repro.session import Session


def child_curve_via_solver(config=None):
    solver = ADPSolver() if config is None else ADPSolver(config)
    return solver._curve  # noqa: SLF001 - the callback is the intended hook


@pytest.fixture
def universal_query():
    # A is a universal output attribute; removing it leaves Qswing-shaped
    # groups, each of which is solved recursively.
    return parse_query("Q(A, B) :- R1(A, B), R2(A, B, C)")


@pytest.fixture
def universal_db():
    return Database.from_dict(
        {"R1": ["A", "B"], "R2": ["A", "B", "C"]},
        {
            "R1": [(1, 10), (1, 11), (2, 20), (2, 21), (2, 22)],
            "R2": [(1, 10, 0), (1, 11, 0), (2, 20, 0), (2, 21, 0), (2, 22, 0)],
        },
    )


class TestUniverseCurve:
    def test_requires_universal_attribute(self):
        query = parse_query("Q(A) :- R1(A), R2(B)")
        with pytest.raises(ValueError):
            universe_curve(query, Database.empty_for_query(query), 1, child_curve_via_solver())

    def test_matches_bruteforce(self, universal_query, universal_db):
        total = Session(universal_db).output_size(universal_query)
        curve = universe_curve(universal_query, universal_db, total, child_curve_via_solver())
        assert curve.optimal
        for k in range(1, total + 1):
            assert curve.cost(k) == bruteforce_optimum(universal_query, universal_db, k)

    def test_solutions_are_feasible_and_match_cost(self, universal_query, universal_db):
        session = Session(universal_db)
        total = session.output_size(universal_query)
        curve = universe_curve(universal_query, universal_db, total, child_curve_via_solver())
        result = session.evaluate(universal_query)
        for k in range(1, total + 1):
            removed = curve.solution(k)
            assert len(removed) == curve.cost(k)
            assert result.outputs_removed_by(removed) >= k

    def test_one_by_one_matches_combined(self, universal_db):
        # Two universal attributes: A and B.
        query = parse_query("Q(A, B) :- R1(A, B), R2(A, B, C)")
        total = Session(universal_db).output_size(query)
        combined = universe_curve(
            query, universal_db, total, child_curve_via_solver(),
            strategy=UniverseStrategy.COMBINED,
        )
        one_by_one = universe_curve(
            query, universal_db, total, child_curve_via_solver(),
            strategy=UniverseStrategy.ONE_BY_ONE,
        )
        for k in range(1, total + 1):
            assert combined.cost(k) == one_by_one.cost(k)

    def test_groups_without_join_partner_are_ignored(self, universal_query):
        database = Database.from_dict(
            {"R1": ["A", "B"], "R2": ["A", "B", "C"]},
            {
                "R1": [(1, 10), (9, 90)],     # A=9 never joins
                "R2": [(1, 10, 0), (7, 70, 0)],  # A=7 never joins
            },
        )
        total = Session(database).output_size(universal_query)
        assert total == 1
        curve = universe_curve(universal_query, database, total, child_curve_via_solver())
        assert curve.cost(1) == 1

    def test_empty_result(self, universal_query):
        database = Database.from_dict(
            {"R1": ["A", "B"], "R2": ["A", "B", "C"]},
            {"R1": [(1, 10)], "R2": [(2, 20, 0)]},
        )
        curve = universe_curve(universal_query, database, 5, child_curve_via_solver())
        assert curve.max_gain() == 0
