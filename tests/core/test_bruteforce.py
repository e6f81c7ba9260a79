"""Unit tests for the brute-force baseline."""

import pytest

from repro.core.bruteforce import bruteforce_optimum, bruteforce_solve


class TestBruteForce:
    def test_figure1_example(self, figure1_full_query, figure1_database):
        # ADP(Q1, D, 2) = 1: removing R3(c3, e3) deletes two outputs.
        solution = bruteforce_solve(figure1_full_query, figure1_database, 2)
        assert solution.size == 1
        assert solution.optimal
        assert solution.verify(figure1_database) >= 2

    def test_k_equals_all_outputs(self, figure1_full_query, figure1_database):
        solution = bruteforce_solve(figure1_full_query, figure1_database, 4)
        assert solution.verify(figure1_database) == 4

    def test_invalid_k(self, figure1_full_query, figure1_database):
        # |Q1(D)| = 4 on the Figure 1 instance.
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
                bruteforce_solve(figure1_full_query, figure1_database, k)
        with pytest.raises(ValueError, match=r"k=5 exceeds the number"):
            bruteforce_solve(figure1_full_query, figure1_database, 5)

    def test_candidate_guard(self, figure1_full_query, figure1_database):
        with pytest.raises(ValueError):
            bruteforce_solve(figure1_full_query, figure1_database, 1, max_candidates=2)

    def test_endogenous_restriction_is_safe(self, qpath, path_instance):
        restricted = bruteforce_optimum(qpath, path_instance, 2, endogenous_only=True)
        unrestricted = bruteforce_optimum(qpath, path_instance, 2, endogenous_only=False)
        assert restricted == unrestricted

    def test_explicit_candidates(self, qpath, path_instance):
        from repro.data.relation import TupleRef

        candidates = [TupleRef("R1", ("a1",)), TupleRef("R1", ("a2",)), TupleRef("R1", ("a3",))]
        solution = bruteforce_solve(qpath, path_instance, 2, candidates=candidates)
        assert solution.removed <= set(candidates)

    def test_stats_record_search_effort(self, qpath, path_instance):
        solution = bruteforce_solve(qpath, path_instance, 1)
        assert solution.stats["subsets_checked"] >= 1
        assert solution.method == "bruteforce"
