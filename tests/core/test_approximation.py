"""Unit tests for the full-CQ approximation algorithms (Theorem 5)."""

import pytest

from repro.core.approximation import (
    approximation_factor_bound,
    full_cq_cover_instance,
    greedy_full_cq,
    primal_dual_full_cq,
)
from repro.core.bruteforce import bruteforce_optimum
from repro.data.database import Database
from repro.query.parser import parse_query
from repro.session import Session


QPATH = parse_query("Qpath(A, B) :- R1(A), R2(A, B), R3(B)")


class TestCoverInstance:
    def test_rejects_projection(self):
        query = parse_query("Q(A) :- R1(A, B)")
        with pytest.raises(ValueError):
            full_cq_cover_instance(query, Database.from_dict({"R1": ["A", "B"]}, {"R1": [(1, 2)]}), 1)

    def test_element_frequency_equals_relation_count(self, path_instance):
        instance = full_cq_cover_instance(QPATH, path_instance, 2)
        assert instance.max_frequency() == len(QPATH.atoms)
        assert len(instance.universe) == Session(path_instance).output_size(QPATH)


class TestApproximations:
    def test_greedy_is_feasible_and_bounded(self, path_instance):
        total = Session(path_instance).output_size(QPATH)
        for k in range(1, total + 1):
            solution = greedy_full_cq(QPATH, path_instance, k)
            optimum = bruteforce_optimum(QPATH, path_instance, k)
            harmonic, _ = approximation_factor_bound(QPATH, k)
            assert solution.removed_outputs >= k
            assert solution.size <= harmonic * optimum + 1e-9

    def test_primal_dual_is_feasible_and_bounded(self, path_instance):
        total = Session(path_instance).output_size(QPATH)
        for k in range(1, total + 1):
            solution = primal_dual_full_cq(QPATH, path_instance, k)
            optimum = bruteforce_optimum(QPATH, path_instance, k)
            _, p = approximation_factor_bound(QPATH, k)
            assert solution.removed_outputs >= k
            assert solution.size <= p * optimum

    def test_methods_are_labelled(self, path_instance):
        assert greedy_full_cq(QPATH, path_instance, 1).method == "psc-greedy"
        assert primal_dual_full_cq(QPATH, path_instance, 1).method == "psc-primal-dual"
        assert not greedy_full_cq(QPATH, path_instance, 1).optimal

    def test_factor_bound_values(self):
        harmonic, p = approximation_factor_bound(QPATH, 4)
        assert p == 3
        assert abs(harmonic - (1 + 1 / 2 + 1 / 3 + 1 / 4)) < 1e-9

    def test_factor_bound_rejects_projection(self):
        with pytest.raises(ValueError):
            approximation_factor_bound(parse_query("Q(A) :- R1(A, B)"), 2)
