"""Unit and cross-check tests for the branch-and-bound exact solver."""

import random

import pytest

from repro.core.bruteforce import bruteforce_optimum
from repro.core.exact_search import branch_and_bound_optimum, branch_and_bound_solve
from repro.data.database import Database
from repro.query.parser import parse_query
from repro.session import Session

from tests.conftest import random_instance, random_query


class TestBranchAndBound:
    def test_figure1_example(self, figure1_full_query, figure1_database):
        solution = branch_and_bound_solve(figure1_full_query, figure1_database, 2)
        assert solution.optimal
        assert solution.size == 1
        assert solution.verify(figure1_database) >= 2

    def test_matches_bruteforce_on_qpath(self, qpath, path_instance):
        total = Session(path_instance).output_size(qpath)
        for k in range(1, total + 1):
            assert branch_and_bound_optimum(qpath, path_instance, k) == \
                bruteforce_optimum(qpath, path_instance, k)

    def test_projection_superadditivity_is_handled(self):
        # Killing the single output requires two deletions even though every
        # individual deletion has profit zero; the admissible bound must not
        # prune the optimal branch.
        query = parse_query("Q(A) :- R1(A, B)")
        database = Database.from_dict(
            {"R1": ["A", "B"]}, {"R1": [(1, 10), (1, 11)]}
        )
        solution = branch_and_bound_solve(query, database, 1)
        assert solution.size == 2
        assert solution.removed_outputs == 1

    def test_matches_bruteforce_on_random_hard_instances(self):
        query = parse_query("Qswing(A) :- R2(A, B), R3(B)")
        rng = random.Random(17)
        for _ in range(15):
            database = Database.from_dict(
                {"R2": ["A", "B"], "R3": ["B"]},
                {
                    "R2": [(a, b) for a in range(3) for b in range(3) if rng.random() < 0.6],
                    "R3": [(b,) for b in range(3) if rng.random() < 0.9],
                },
            )
            total = Session(database).output_size(query)
            if total == 0:
                continue
            k = rng.randint(1, total)
            assert branch_and_bound_optimum(query, database, k) == \
                bruteforce_optimum(query, database, k, max_candidates=40)

    def test_matches_bruteforce_on_random_queries(self):
        rng = random.Random(23)
        checked = 0
        while checked < 10:
            query = random_query(rng, max_relations=3, max_attributes=3)
            database = random_instance(query, rng, max_tuples_per_relation=3, domain_size=2)
            total = Session(database).output_size(query)
            if total == 0:
                continue
            checked += 1
            k = rng.randint(1, total)
            assert branch_and_bound_optimum(query, database, k) == \
                bruteforce_optimum(query, database, k, max_candidates=40), str(query)

    def test_larger_instance_than_bruteforce_can_handle(self):
        # ~90 candidate tuples: far beyond subset enumeration, fine for B&B.
        query = parse_query("Qpath(A, B) :- R1(A), R2(A, B), R3(B)")
        rng = random.Random(5)
        database = Database.from_dict(
            {"R1": ["A"], "R2": ["A", "B"], "R3": ["B"]},
            {
                "R1": [(a,) for a in range(30)],
                "R2": [(a, rng.randrange(30)) for a in range(30) for _ in range(2)],
                "R3": [(b,) for b in range(30)],
            },
        )
        total = Session(database).output_size(query)
        solution = branch_and_bound_solve(query, database, max(1, total // 4))
        assert solution.optimal
        assert solution.removed_outputs >= max(1, total // 4)

    def test_invalid_k(self, qpath, path_instance):
        with pytest.raises(ValueError):
            branch_and_bound_solve(qpath, path_instance, 0)
        with pytest.raises(ValueError):
            branch_and_bound_solve(qpath, path_instance, 999)

    def test_node_limit(self, qpath, path_instance):
        with pytest.raises(RuntimeError):
            branch_and_bound_solve(qpath, path_instance, 4, node_limit=1)

    def test_stats_are_reported(self, qpath, path_instance):
        solution = branch_and_bound_solve(qpath, path_instance, 2)
        assert solution.method == "branch-and-bound"
        assert solution.stats["nodes"] >= 1
