"""Unit tests for the unified ComputeADP solver (Algorithm 2)."""

import pytest

from repro.core.adp import ADPSolver, SolverConfig
from repro.core.bruteforce import bruteforce_optimum
from repro.core.decidability import is_poly_time
from repro.data.database import Database
from repro.query.parser import parse_query
from repro.session import Session


class TestSolverDispatch:
    def test_exact_on_singleton_query(self):
        query = parse_query("Q(A, B) :- R1(A), R2(A, B)")
        database = Database.from_dict(
            {"R1": ["A"], "R2": ["A", "B"]},
            {"R1": [(1,), (2,)], "R2": [(1, 10), (1, 11), (2, 20)]},
        )
        solution = Session(database).solve(query, 2)
        assert solution.optimal
        assert solution.method == "exact"
        assert solution.size == 1

    def test_exact_on_boolean_query(self):
        query = parse_query("Q() :- R1(A), R2(A, B), R3(B)")
        database = Database.from_dict(
            {"R1": ["A"], "R2": ["A", "B"], "R3": ["B"]},
            {"R1": [("a",)], "R2": [("a", "b")], "R3": [("b",)]},
        )
        solution = Session(database).solve(query, 1)
        assert solution.optimal
        assert solution.size == 1

    def test_heuristic_on_hard_query(self, qpath, path_instance):
        solution = Session(path_instance).solve(qpath, 2)
        assert not solution.optimal
        assert solution.method == "greedy"
        assert solution.removed_outputs >= 2

    def test_drastic_heuristic(self, qpath, path_instance):
        solution = Session(path_instance).solve(qpath, 2, heuristic="drastic")
        assert solution.method == "drastic"
        assert solution.removed_outputs >= 2

    def test_drastic_falls_back_on_projection(self):
        query = parse_query("Qswing(A) :- R2(A, B), R3(B)")
        database = Database.from_dict(
            {"R2": ["A", "B"], "R3": ["B"]},
            {"R2": [(1, 1), (2, 1), (3, 2)], "R3": [(1,), (2,)]},
        )
        solution = Session(database).solve(query, 2, heuristic="drastic")
        assert solution.removed_outputs >= 2
        assert solution.stats["heuristic_fallbacks"] >= 1

    def test_universal_then_decompose_recursion(self):
        # Universal attribute A; residual query is disconnected.
        query = parse_query("Q(A, B, C) :- R1(A, B), R2(A, C)")
        database = Database.from_dict(
            {"R1": ["A", "B"], "R2": ["A", "C"]},
            {
                "R1": [(1, 10), (1, 11), (2, 20)],
                "R2": [(1, 5), (1, 6), (2, 7)],
            },
        )
        assert is_poly_time(query)
        session = Session(database)
        total = session.output_size(query)
        solver = ADPSolver()
        for k in range(1, total + 1):
            solution = session.solve(query, k, solver=solver)
            assert solution.optimal
            assert solution.size == bruteforce_optimum(query, database, k)

    def test_counting_only_mode(self, qpath, path_instance):
        session = Session(path_instance)
        solution = session.solve(qpath, 2, counting_only=True)
        assert solution.removed == frozenset()
        assert solution.size >= 1
        reporting = session.solve(qpath, 2)
        assert solution.size == reporting.size

    def test_exactness_matches_dichotomy(self, qpath):
        solver = ADPSolver()
        assert not solver.is_exact_for(qpath)
        assert solver.is_exact_for(parse_query("Q(A, B) :- R1(A), R2(A, B)"))


class TestSolverValidation:
    def test_k_out_of_range(self, qpath, path_instance):
        solver = ADPSolver()
        with pytest.raises(ValueError):
            session = Session(path_instance)
            session.solve(qpath, 0, solver=solver)
        with pytest.raises(ValueError):
            session.solve(qpath, 99, solver=solver)

    def test_solve_ratio(self, qpath, path_instance):
        session = Session(path_instance)
        total = session.output_size(qpath)
        solution = session.solve_ratio(qpath, 0.5)
        assert solution.k == -(-total // 2) or solution.k == max(1, int(0.5 * total) + (total % 2 == 1))
        assert solution.removed_outputs >= solution.k

    def test_solve_ratio_rejects_bad_ratio(self, qpath, path_instance):
        with pytest.raises(ValueError):
            session = Session(path_instance)
            session.solve_ratio(qpath, 0.0)
        with pytest.raises(ValueError):
            session.solve_ratio(qpath, 1.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(heuristic="nonsense")
        with pytest.raises(ValueError):
            ADPSolver(SolverConfig(), heuristic="greedy")

    def test_compute_adp_wrapper(self):
        query = parse_query("Q(A, B) :- R1(A), R2(A, B)")
        database = Database.from_dict(
            {"R1": ["A"], "R2": ["A", "B"]},
            {"R1": [(1,), (2,)], "R2": [(1, 10), (1, 11), (2, 20)]},
        )
        assert Session(database).solve(query, k=2).size == 1


class TestSolutionQualityOnEasyQueries:
    @pytest.mark.parametrize(
        "query_text, schema, rows",
        [
            (
                "Q(A, B) :- R1(A), R2(A, B)",
                {"R1": ["A"], "R2": ["A", "B"]},
                {"R1": [(1,), (2,), (3,)], "R2": [(1, 1), (1, 2), (2, 1), (3, 3), (3, 4)]},
            ),
            (
                "Q(A) :- R1(A, B), R2(A, B, C)",
                {"R1": ["A", "B"], "R2": ["A", "B", "C"]},
                {
                    "R1": [(1, 1), (1, 2), (2, 1)],
                    "R2": [(1, 1, 7), (1, 2, 7), (2, 1, 7), (2, 1, 8)],
                },
            ),
            (
                "Q(A, C) :- R1(A), R2(C)",
                {"R1": ["A"], "R2": ["C"]},
                {"R1": [(1,), (2,)], "R2": [(5,), (6,), (7,)]},
            ),
        ],
    )
    def test_exact_matches_bruteforce_for_all_k(self, query_text, schema, rows):
        query = parse_query(query_text)
        database = Database.from_dict(schema, rows)
        assert is_poly_time(query)
        session = Session(database)
        total = session.output_size(query)
        solver = ADPSolver()
        for k in range(1, total + 1):
            solution = session.solve(query, k, solver=solver)
            assert solution.optimal
            assert solution.removed_outputs >= k
            assert solution.size == bruteforce_optimum(query, database, k), (query_text, k)
