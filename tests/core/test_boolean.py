"""Unit tests for the Boolean (resilience) base case: linearisation + min cut."""

import hashlib
import random

import pytest

from repro.core.boolean_cq import linear_order, min_cut_curve
from repro.core.bruteforce import bruteforce_optimum
from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.backend import numpy_available
from repro.query.parser import parse_query
from repro.session import Session

BACKENDS = [
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not numpy_available(), reason="numpy unavailable"),
    ),
]

CHAIN = parse_query("Q() :- R1(A), R2(A, B), R3(B)")


def _random_chain(rng: random.Random, domain: int = 3) -> Database:
    """A random boolean-chain instance plus one dangling row per relation.

    ``R1(domain)`` has no ``R2`` partner, ``R3(domain + 1)`` no ``R2``
    partner, and ``R2(0, domain + 2)`` no ``R3`` partner: none of them is in
    any witness.
    """
    return Database.from_dict(
        {"R1": ["A"], "R2": ["A", "B"], "R3": ["B"]},
        {
            "R1": [(a,) for a in range(domain) if rng.random() < 0.8] + [(domain,)],
            "R2": [
                (a, b) for a in range(domain) for b in range(domain)
                if rng.random() < 0.5
            ] + [(0, domain + 2)],
            "R3": [(b,) for b in range(domain) if rng.random() < 0.8]
            + [(domain + 1,)],
        },
    )


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

    def test_matches_bruteforce_on_random_chains(self, test_seed):
        rng = random.Random(test_seed)
        for _ in range(10):
            database = _random_chain(rng)
            if Session(database).output_size(CHAIN) == 0:
                continue
            curve = min_cut_curve(CHAIN, database)
            assert curve.cost(1) == bruteforce_optimum(CHAIN, database, 1)
            # A dangling row is never worth cutting.
            assert not curve.solution(1) & {
                TupleRef("R1", (3,)), TupleRef("R2", (0, 5)), TupleRef("R3", (4,))
            }

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


# --------------------------------------------------------------------------- #
# Pinned min-cut answers
# --------------------------------------------------------------------------- #
def _rows(rng: random.Random, arity: int, domain: int, count: int) -> list:
    return [tuple(rng.randrange(domain) for _ in range(arity)) for _ in range(count)]


def pinned_min_cut_instances():
    """``(name, query, database)`` triples behind :data:`PINNED_MIN_CUT_DIGEST`.

    Fixed seeds; every shape carries dangling rows (values outside the
    join's reach), and two carry a 0-ary atom (non-empty and empty).
    """
    instances = []
    rng = random.Random(20240611)
    for i in range(6):
        instances.append((f"chain-{i}", CHAIN, _random_chain(rng, domain=5)))
    path = parse_query("Q() :- R1(A, B), R2(B, C), R3(C, D)")
    for i in range(4):
        instances.append((
            f"path-{i}",
            path,
            Database.from_dict(
                {"R1": ["A", "B"], "R2": ["B", "C"], "R3": ["C", "D"]},
                {
                    "R1": _rows(rng, 2, 4, 8) + [(0, 9)],
                    "R2": _rows(rng, 2, 4, 8) + [(8, 0)],
                    "R3": _rows(rng, 2, 4, 8) + [(7, 1)],
                },
            ),
        ))
    disconnected = parse_query("Q() :- R1(A), R2(B), R3(B, C)")
    for i in range(3):
        instances.append((
            f"disconnected-{i}",
            disconnected,
            Database.from_dict(
                {"R1": ["A"], "R2": ["B"], "R3": ["B", "C"]},
                {
                    "R1": _rows(rng, 1, 6, 4),
                    "R2": _rows(rng, 1, 4, 4) + [(9,)],
                    "R3": _rows(rng, 2, 4, 6),
                },
            ),
        ))
    vacuum = parse_query("Q() :- R1(A), R2(A, B), V()")
    for i, guard in enumerate([[()], [()], []]):
        instances.append((
            f"vacuum-{i}",
            vacuum,
            Database.from_dict(
                {"R1": ["A"], "R2": ["A", "B"], "V": []},
                {
                    "R1": _rows(rng, 1, 4, 3) + [(9,)],
                    "R2": _rows(rng, 2, 4, 5),
                    "V": guard,
                },
            ),
        ))
    return instances


def min_cut_answers(backend: str) -> list:
    """``(name, max_gain, sorted repr of solution(1))`` per pinned instance."""
    answers = []
    for name, query, database in pinned_min_cut_instances():
        with Session(database, backend=backend) as session:
            with session.activate():
                curve = min_cut_curve(query, database)
        solution = (
            sorted(map(repr, curve.solution(1))) if curve.max_gain() else None
        )
        answers.append((name, curve.max_gain(), solution))
    return answers


#: sha256 of ``repr(min_cut_answers(backend))``, recorded with the
#: implementation that removed dangling tuples into a copied database and
#: re-evaluated the query on it; identical on both backends.
PINNED_MIN_CUT_DIGEST = "3759fd8061530f1ba0d36ff6d44384443b7e449129e98f4d5c17e978430541f0"


@pytest.mark.parametrize("backend", BACKENDS)
def test_min_cut_answers_match_pinned_digest(backend):
    answers = min_cut_answers(backend)
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    assert digest == PINNED_MIN_CUT_DIGEST
