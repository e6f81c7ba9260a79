"""Unit tests for the full-CQ approximation algorithms (Theorem 5).

Both approximations run on the provenance index of the greedy heuristics.
Their answers are pinned on fixed seeded instances (path, triangle, 4-atom
chain, a full CQ with a 0-ary atom and one whose atoms are out of name
order), recorded on the earlier partial-set-cover implementation over
``frozenset`` sets, and checked against brute force on random full CQs
drawn from ``REPRO_TEST_SEED``.
"""

import hashlib
import itertools
import random

import pytest

from repro.core.approximation import (
    approximation_factor_bound,
    greedy_full_cq,
    primal_dual_full_cq,
)
from repro.core.bruteforce import bruteforce_optimum
from repro.core.greedy import greedy_curve
from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.backend import numpy_available
from repro.engine.provenance import ProvenanceIndex
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.session import Session

from tests.conftest import random_query


QPATH = parse_query("Qpath(A, B) :- R1(A), R2(A, B), R3(B)")

APPROXIMATIONS = {"greedy": greedy_full_cq, "primal_dual": primal_dual_full_cq}

BACKENDS = [
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not numpy_available(), reason="numpy unavailable"),
    ),
]


def star_instance():
    """Qpath where ``R1(a2)`` sits in three of the four witnesses."""
    return Database.from_dict(
        {"R1": ["A"], "R2": ["A", "B"], "R3": ["B"]},
        {
            "R1": [("a1",), ("a2",)],
            "R2": [("a1", "b4"), ("a2", "b1"), ("a2", "b2"), ("a2", "b3")],
            "R3": [("b1",), ("b2",), ("b3",), ("b4",)],
        },
    )


class TestReduction:
    @pytest.mark.parametrize("name", sorted(APPROXIMATIONS))
    def test_rejects_projection(self, name):
        query = parse_query("Q(A) :- R1(A, B)")
        database = Database.from_dict({"R1": ["A", "B"]}, {"R1": [(1, 2)]})
        with pytest.raises(ValueError, match="requires a full CQ"):
            APPROXIMATIONS[name](query, database, 1)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_element_lies_in_p_sets(self, path_instance, backend):
        # Theorem 5's reduction on the index: one element per output tuple,
        # held by exactly one tuple of each relation.
        with Session(path_instance, backend=backend) as session:
            result = session.evaluate(QPATH)
        index = ProvenanceIndex(result)
        witness_count = result.witness_count()
        assert witness_count == result.output_count()
        for wid in range(witness_count):
            rids = index.witness_rids(wid)
            assert len(rids) == len(set(rids)) == len(QPATH.atoms)
            assert all(wid in index.ref_witnesses(rid) for rid in rids)
        assert sorted(
            wid for rid in range(index.ref_count()) for wid in index.ref_witnesses(rid)
        ) == sorted(list(range(witness_count)) * len(QPATH.atoms))


class TestTargetValidation:
    """The approximations check ``k`` like every other solve path."""

    @pytest.mark.parametrize("name", sorted(APPROXIMATIONS))
    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_non_positive_k(self, path_instance, name, k):
        with pytest.raises(ValueError, match="k must be at least 1"):
            APPROXIMATIONS[name](QPATH, path_instance, k)

    @pytest.mark.parametrize("name", sorted(APPROXIMATIONS))
    def test_rejects_k_beyond_output_size(self, path_instance, name):
        total = Session(path_instance).output_size(QPATH)
        with pytest.raises(ValueError, match="exceeds the number of output tuples"):
            APPROXIMATIONS[name](QPATH, path_instance, total + 1)


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

    def test_greedy_picks_largest_set_first(self):
        database = star_instance()
        solution = greedy_full_cq(QPATH, database, 3)
        assert solution.removed == {TupleRef("R1", ("a2",))}
        assert solution.removed_outputs == 3

    def test_greedy_stops_once_target_is_met(self):
        solution = greedy_full_cq(QPATH, star_instance(), 4)
        assert solution.size == 2
        assert solution.removed_outputs == 4

    def test_greedy_sets_are_every_input_tuple(self):
        # PSC has a set per input tuple, exogenous ones included: on a tie
        # R1 precedes R2 in repr order, although only R2 is endogenous.
        query = parse_query("Q(A, B, C) :- R1(A, B, C), R2(C)")
        database = Database.from_dict(
            {"R1": ["A", "B", "C"], "R2": ["C"]},
            {"R1": [(0, 0, 0), (0, 0, 1)], "R2": [(0,), (1,)]},
        )
        solution = greedy_full_cq(query, database, 1)
        assert solution.removed == {TupleRef("R1", (0, 0, 0))}

    def test_primal_dual_tries_every_guess(self):
        # The first guess, R1(a1), covers one output and then buys whole
        # witnesses; the second guess, R1(a2), covers three with one tuple.
        solution = primal_dual_full_cq(QPATH, star_instance(), 3)
        assert solution.removed == {TupleRef("R1", ("a2",))}

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


PINNED_QUERIES = {
    "path": "Qpath(A, B) :- R1(A), R2(A, B), R3(B)",
    "triangle": "Qtri(A, B, C) :- R1(A, B), R2(B, C), R3(C, A)",
    "chain4": "Qchain(A, B, C) :- R1(A), R2(A, B), R3(B, C), R4(C)",
    "vacuum": "Qvac(A, B) :- R1(A), R2(A, B), V()",
    # Atoms out of name order: a witness's sets are bought in repr order.
    "reversed": "Qrev(A, B, C) :- T(C), S(B, C), R(A, B), P(A)",
}


def pinned_instance(name, seed):
    """18 seeded integer rows per relation (hash-stable, repr order unlike
    numeric order); the 0-ary ``V`` holds its one tuple."""
    query = parse_query(PINNED_QUERIES[name])
    rng = random.Random(seed)
    width = 5 if name == "triangle" else 12
    rows = {
        atom.name: [
            tuple(rng.randrange(width) for _ in atom.attributes) for _ in range(18)
        ]
        for atom in query.atoms
    }
    schema = {atom.name: list(atom.attributes) for atom in query.atoms}
    return query, Database.from_dict(schema, rows)


def pinned_targets(total):
    return sorted({k for k in (1, 2, total // 3, total // 2, total - 1, total) if k >= 1})


def solutions_digest(solutions):
    text = repr([
        (k, sorted(map(repr, s.removed)), s.removed_outputs, s.size)
        for k, s in solutions
    ])
    return hashlib.sha256(text.encode()).hexdigest()


#: ``(name, seed) -> (|Q(D)|, {approximation: (digest, ((k, size,
#: removed_outputs), ...))})``, recorded with the partial-set-cover
#: implementation over ``frozenset`` sets; the digest covers each target's
#: ``removed`` set too.  The primal-dual walks witnesses in ID order, so its
#: answers follow tids, which follow each relation's insertion order.
PINNED = {
    ("path", 1): (9, {
        "greedy": (
            "53c12e6d8bba7a61db442dba96d43e3a40d581768978d7e0ad5b2287450406cc",
            ((1, 1, 2), (2, 1, 2), (3, 2, 4), (4, 2, 4), (8, 6, 8), (9, 7, 9)),
        ),
        "primal_dual": (
            "41540d9fca8408641e992538e9015063b857e809055795867abd470b26ed315e",
            ((1, 1, 2), (2, 1, 2), (3, 2, 3), (4, 5, 4), (8, 14, 8), (9, 17, 9)),
        ),
    }),
    ("path", 2): (11, {
        "greedy": (
            "d8d8d5270ea73dafe03a764a4be864173a38b9a9afb186b0a76fa4c1d552e3bc",
            ((1, 1, 5), (2, 1, 5), (3, 1, 5), (5, 1, 5), (10, 3, 10), (11, 4, 11)),
        ),
        "primal_dual": (
            "6a14ec776546ab6265f6aa084d7cfc598bf4b0526fb672c1bf31e7e43b1bab27",
            ((1, 1, 1), (2, 1, 5), (3, 1, 5), (5, 1, 5), (10, 5, 10), (11, 5, 11)),
        ),
    }),
    ("triangle", 1): (10, {
        "greedy": (
            "ee4a211ca3b469ffaeffdc2aee2c6b9058ada69f1b0c78b56dfc637f61404948",
            ((1, 1, 3), (2, 1, 3), (3, 1, 3), (5, 2, 5), (9, 5, 9), (10, 6, 10)),
        ),
        "primal_dual": (
            "232280d8b1b7ed4a717670f79298a5c250fca8c76837b60e34fdb465c9cc9c49",
            ((1, 1, 1), (2, 1, 2), (3, 1, 3), (5, 5, 5), (9, 11, 9), (10, 14, 10)),
        ),
    }),
    ("triangle", 2): (19, {
        "greedy": (
            "dd439af6eb8235956d73c4c289815763f4f47c909f58cc727a7d1e2ed21e45a1",
            ((1, 1, 4), (2, 1, 4), (6, 2, 7), (9, 3, 10), (18, 7, 18), (19, 8, 19)),
        ),
        "primal_dual": (
            "44d17fa6f3afd58fc8354e336aa4c423d5b297f09af8151d5eef13924c40bc6c",
            ((1, 1, 1), (2, 1, 2), (6, 2, 6), (9, 5, 9), (18, 12, 18), (19, 14, 19)),
        ),
    }),
    ("chain4", 1): (18, {
        "greedy": (
            "f69b0f13bc02e833d10ddcc8565e7ad99dbca41a86e54bbd6d1689a289e72297",
            ((1, 1, 5), (2, 1, 5), (6, 2, 8), (9, 3, 11), (17, 6, 17), (18, 7, 18)),
        ),
        "primal_dual": (
            "bf894c77d1fe3f8bbdfdf5c1f0e1425cbf1b10b9375c51cef1cffba28977dfc9",
            ((1, 1, 5), (2, 1, 5), (6, 2, 6), (9, 6, 10), (17, 18, 17), (18, 22, 18)),
        ),
    }),
    ("chain4", 2): (21, {
        "greedy": (
            "e668f13045719b1bdad30df50c057e617ee3bd0da0f1fd0aac8911b29eede87c",
            ((1, 1, 10), (2, 1, 10), (7, 1, 10), (10, 1, 10), (20, 4, 21), (21, 4, 21)),
        ),
        "primal_dual": (
            "53e6e2c06f4d7e772988debbcdee62fca77f83f0ac34451b5ee45ecab6de8494",
            ((1, 1, 2), (2, 1, 2), (7, 1, 10), (10, 1, 10), (20, 10, 21), (21, 10, 21)),
        ),
    }),
    ("vacuum", 1): (11, {
        "greedy": (
            "a8fee8f2275b4e47c818c661b9937df17d8cedd899745bc5db93c69220f89d96",
            ((1, 1, 11), (2, 1, 11), (3, 1, 11), (5, 1, 11), (10, 1, 11), (11, 1, 11)),
        ),
        "primal_dual": (
            "a3f29613cebf14f35f7e11d8dcf4274b4d3184f58947917345e1c9286aeb7ec9",
            ((1, 1, 3), (2, 1, 3), (3, 1, 3), (5, 1, 11), (10, 1, 11), (11, 1, 11)),
        ),
    }),
    ("vacuum", 2): (13, {
        "greedy": (
            "bb8643a4111d3157aff2ebcb349bb3545b455b66653dcf387b2824b2fc572014",
            ((1, 1, 13), (2, 1, 13), (4, 1, 13), (6, 1, 13), (12, 1, 13), (13, 1, 13)),
        ),
        "primal_dual": (
            "f1ff453689757cc18c404ffada84c1b75d700df4753e8b11caf3e3010f35f1de",
            ((1, 1, 1), (2, 1, 5), (4, 1, 5), (6, 1, 13), (12, 1, 13), (13, 1, 13)),
        ),
    }),
    ("reversed", 1): (17, {
        "greedy": (
            "35772232ef2afe64109b9fed8056cfd167174d655e26fe0ad99cdbc96c00be28",
            ((1, 1, 5), (2, 1, 5), (5, 1, 5), (8, 2, 9), (16, 4, 16), (17, 5, 17)),
        ),
        "primal_dual": (
            "6dce6a9eaa1c1032a92b0ad55d8234e5e8af798ba38f44856d72d3e69de62fe2",
            ((1, 1, 2), (2, 1, 2), (5, 1, 5), (8, 6, 8), (16, 14, 16), (17, 16, 17)),
        ),
    }),
    ("reversed", 2): (7, {
        "greedy": (
            "2ad58b2d3dbe8651f790d4a6ec3c721e74b9f1bc2b245ea11b3130fe226edede",
            ((1, 1, 3), (2, 1, 3), (3, 1, 3), (6, 3, 6), (7, 4, 7)),
        ),
        "primal_dual": (
            "e289a1fd7d087bd1ad14e030f2c55c2eda1d0dcba66e69a67049c4718f275e53",
            ((1, 1, 1), (2, 1, 3), (3, 1, 3), (6, 4, 6), (7, 6, 7)),
        ),
    }),
}


class TestPinnedApproximations:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("approximation", sorted(APPROXIMATIONS))
    @pytest.mark.parametrize(
        "name,seed", sorted(PINNED), ids=[f"{n}-{s}" for n, s in sorted(PINNED)]
    )
    def test_matches_pinned_answers(self, name, seed, approximation, backend):
        query, database = pinned_instance(name, seed)
        total, expected = PINNED[(name, seed)]
        digest, sizes = expected[approximation]
        with Session(database, backend=backend) as session, session.activate():
            assert session.output_size(query) == total
            solutions = [
                (k, APPROXIMATIONS[approximation](query, database, k))
                for k in pinned_targets(total)
            ]
        assert tuple((k, s.size, s.removed_outputs) for k, s in solutions) == sizes
        assert solutions_digest(solutions) == digest

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "name,seed", sorted(PINNED), ids=[f"{n}-{s}" for n, s in sorted(PINNED)]
    )
    def test_greedy_is_algorithm_6_over_every_relation(self, name, seed, backend):
        query, database = pinned_instance(name, seed)
        with Session(database, backend=backend) as session, session.activate():
            curve = greedy_curve(query, database, endogenous_only=False)
            for k in range(1, session.output_size(query) + 1):
                assert greedy_full_cq(query, database, k).removed == curve.solution(k)


def random_full_cq(rng):
    """A random full CQ of 2-4 relations (sometimes plus a 0-ary one) and
    an instance keeping each possible row over a 3-value domain with
    probability 0.6."""
    base = random_query(rng, max_relations=4, max_attributes=3, allow_boolean=False)
    while len(base.atoms) < 2:
        base = random_query(rng, max_relations=4, max_attributes=3, allow_boolean=False)
    atoms = base.atoms
    if rng.random() < 0.25:
        atoms += parse_query("Qv() :- V()").atoms
    head = tuple(sorted(set().union(*(atom.attribute_set for atom in atoms))))
    rows = {
        atom.name: [
            row for row in itertools.product(range(3), repeat=len(atom.attributes))
            if rng.random() < 0.6
        ]
        for atom in atoms
    }
    schema = {atom.name: list(atom.attributes) for atom in atoms}
    return ConjunctiveQuery(head, atoms, name="Qfull"), Database.from_dict(schema, rows)


@pytest.mark.parametrize("backend", BACKENDS)
def test_approximations_on_random_full_cqs(backend, test_seed):
    """Both are feasible for every ``k`` and greedy <= H_k * OPT.

    The primal-dual is not held to ``p * OPT`` here: the element walk can
    exceed it (see :func:`test_primal_dual_p_bound_counterexample`).
    """
    rng = random.Random(test_seed)
    for _ in range(16):
        query, database = random_full_cq(rng)
        with Session(database, backend=backend) as session, session.activate():
            total = session.output_size(query)
            for k in range(1, total + 1):
                greedy = greedy_full_cq(query, database, k)
                primal_dual = primal_dual_full_cq(query, database, k)
                for solution in (greedy, primal_dual):
                    assert solution.removed_outputs >= k
                    assert solution.removed_outputs == session.evaluate(
                        query
                    ).outputs_removed_by(solution.removed)
                optimum = bruteforce_optimum(query, database, k)
                harmonic, _ = approximation_factor_bound(query, k)
                assert greedy.size <= harmonic * optimum + 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="walking uncovered elements in witness-ID order is not a "
    "p-approximation for partial cover",
)
def test_primal_dual_p_bound_counterexample():
    # Deleting R2(0) and R2(2) removes 12 of the 14 outputs, so OPT(10) = 2
    # and p * OPT = 4; the primal-dual answers with 5 tuples.
    query = parse_query("Q(A, B, C) :- R1(A, B, C), R2(C)")
    r1 = [
        (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 2), (0, 2, 0), (0, 2, 2), (1, 0, 0),
        (1, 1, 0), (1, 1, 2), (1, 2, 2), (2, 1, 0), (2, 1, 1), (2, 2, 0), (2, 2, 2),
    ]
    database = Database.from_dict(
        {"R1": ["A", "B", "C"], "R2": ["C"]},
        {"R1": r1, "R2": [(0,), (1,), (2,)]},
    )
    assert bruteforce_optimum(query, database, 10) == 2
    _, p = approximation_factor_bound(query, 10)
    assert primal_dual_full_cq(query, database, 10).size <= p * 2
