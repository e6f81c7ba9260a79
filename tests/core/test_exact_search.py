"""Unit and cross-check tests for the branch-and-bound exact solver.

Answers and search statistics are pinned on seeded instances (a path, a
projection, a query with a 0-ary atom and the string-valued Zipf path) on
both array backends, and the optimum is checked against brute force on
random queries drawn from ``REPRO_TEST_SEED``.
"""

import random

import pytest

from repro.core.bruteforce import bruteforce_optimum
from repro.core.exact_search import branch_and_bound_optimum, branch_and_bound_solve
from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.backend import numpy_available
from repro.query.parser import parse_query
from repro.session import Session
from repro.workloads.zipf import generate_zipf_path

from tests.conftest import random_instance, random_query


BACKENDS = [
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not numpy_available(), reason="numpy unavailable"),
    ),
]

QH = "Qh(A) :- R1(A), R2(A, B), R3(B)"
QPATH = "Qpath(A, B) :- R1(A), R2(A, B), R3(B)"


def seeded_instance(text, seed, width, rows):
    """``rows`` seeded rows over ``range(width)`` per atom (a 0-ary atom
    holds its one tuple)."""
    query = parse_query(text)
    rng = random.Random(seed)
    data = {
        atom.name: [
            tuple(rng.randrange(width) for _ in atom.attributes)
            for _ in range(rows if atom.attributes else 1)
        ]
        for atom in query.atoms
    }
    schema = {atom.name: list(atom.attributes) for atom in query.atoms}
    return query, Database.from_dict(schema, data)


def pinned_instance(name):
    if name == "path":
        return seeded_instance(QPATH, 2, 4, 12)
    if name == "projection":
        return seeded_instance(QH, 3, 6, 12)
    if name == "vacuum":
        return seeded_instance("Qv(A, B) :- R1(A), R2(A, B), V()", 4, 5, 10)
    query_text = {"zipf-qh": QH, "zipf-qpath": QPATH}[name]
    return parse_query(query_text), generate_zipf_path(60, 1.1, 5)


#: ``(instance, endogenous_only, k) -> (removed (relation, values) pairs,
#: removed_outputs, nodes, candidates)``, recorded on both backends with the
#: earlier ``TupleRef``-keyed search (identical under any ``PYTHONHASHSEED``).
PINNED_SEARCHES = {
    ('path', True, 1): ((('R3', (3,)),), 3, 1, 7),
    ('path', True, 2): ((('R3', (3,)),), 3, 1, 7),
    ('path', True, 3): ((('R3', (3,)),), 3, 1, 7),
    ('path', True, 5): ((('R3', (2,)), ('R3', (3,))), 6, 8, 7),
    ('path', True, 7): ((('R3', (1,)), ('R3', (2,)), ('R3', (3,))), 9, 23, 7),
    ('path', False, 1): ((('R3', (3,)),), 3, 1, 16),
    ('path', False, 2): ((('R3', (3,)),), 3, 1, 16),
    ('path', False, 3): ((('R3', (3,)),), 3, 1, 16),
    ('path', False, 5): ((('R3', (2,)), ('R3', (3,))), 6, 17, 16),
    ('path', False, 7): ((('R3', (1,)), ('R3', (2,)), ('R3', (3,))), 9, 59, 16),
    ('projection', True, 1): ((('R1', (3,)),), 1, 1, 9),
    ('projection', True, 2): ((('R1', (1,)), ('R1', (3,))), 2, 10, 9),
    ('projection', True, 3): ((('R1', (1,)), ('R1', (3,)), ('R3', (3,))), 3, 45, 9),
    ('projection', True, 4): ((('R1', (1,)), ('R1', (3,)), ('R3', (0,)), ('R3', (3,))), 4, 118, 9),
    ('projection', False, 1): ((('R1', (3,)),), 1, 1, 16),
    ('projection', False, 2): ((('R1', (1,)), ('R1', (3,))), 2, 17, 16),
    ('projection', False, 3): ((('R1', (1,)), ('R1', (3,)), ('R3', (3,))), 3, 136, 16),
    ('projection', False, 4): ((('R1', (1,)), ('R1', (3,)), ('R3', (0,)), ('R3', (3,))), 4, 580, 16),
    ('vacuum', True, 1): ((('V', ()),), 6, 1, 1),
    ('vacuum', True, 6): ((('V', ()),), 6, 1, 1),
    ('vacuum', False, 1): ((('V', ()),), 6, 1, 10),
    ('vacuum', False, 6): ((('V', ()),), 6, 1, 10),
    ('zipf-qh', True, 2): ((('R1', ('a0',)), ('R1', ('a1',))), 2, 24, 23),
    ('zipf-qh', True, 3): ((('R1', ('a0',)), ('R1', ('a1',)), ('R1', ('a3',))), 3, 277, 23),
    ('zipf-qh', True, 4): ((('R1', ('a0',)), ('R1', ('a1',)), ('R1', ('a2',)), ('R1', ('a3',))), 4, 2048, 23),
    ('zipf-qh', False, 2): ((('R1', ('a0',)), ('R1', ('a1',))), 2, 84, 83),
    ('zipf-qh', False, 3): ((('R1', ('a0',)), ('R1', ('a1',)), ('R1', ('a3',))), 3, 3487, 83),
    ('zipf-qpath', True, 12): ((('R1', ('a0',)),), 12, 1, 23),
    ('zipf-qpath', True, 13): ((('R1', ('a0',)), ('R1', ('a1',))), 22, 24, 23),
    ('zipf-qpath', True, 30): ((('R1', ('a0',)), ('R1', ('a1',)), ('R1', ('a3',))), 31, 46, 23),
    ('zipf-qpath', False, 12): ((('R1', ('a0',)),), 12, 1, 83),
    ('zipf-qpath', False, 13): ((('R1', ('a0',)), ('R1', ('a1',))), 22, 84, 83),
    ('zipf-qpath', False, 30): ((('R1', ('a0',)), ('R1', ('a1',)), ('R1', ('a3',))), 31, 166, 83),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "name,endogenous_only,k",
    list(PINNED_SEARCHES),
    ids=[f"{n}-{'endo' if e else 'all'}-k{k}" for n, e, k in PINNED_SEARCHES],
)
def test_matches_pinned_search(name, endogenous_only, k, backend):
    query, database = pinned_instance(name)
    removed, removed_outputs, nodes, candidates = PINNED_SEARCHES[
        (name, endogenous_only, k)
    ]
    with Session(database, backend=backend) as session, session.activate():
        solution = branch_and_bound_solve(
            query, database, k, endogenous_only=endogenous_only
        )
    assert solution.removed == frozenset(TupleRef(r, v) for r, v in removed)
    assert solution.removed_outputs == removed_outputs
    assert solution.stats == {"nodes": nodes, "candidates": candidates}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("endogenous_only", [True, False])
def test_matches_bruteforce_on_seeded_random_queries(
    backend, endogenous_only, test_seed
):
    rng = random.Random(test_seed)
    checked = 0
    while checked < 12:
        query = random_query(rng, max_relations=3, max_attributes=3)
        database = random_instance(
            query, rng, max_tuples_per_relation=4, domain_size=3
        )
        with Session(database, backend=backend) as session, session.activate():
            total = session.output_size(query)
            if total == 0:
                continue
            checked += 1
            for k in sorted({1, (total + 1) // 2, total}):
                assert branch_and_bound_optimum(
                    query, database, k, endogenous_only=endogenous_only
                ) == bruteforce_optimum(
                    query, database, k, endogenous_only=endogenous_only,
                    max_candidates=40,
                ), (str(query), k)


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
        total = Session(path_instance).output_size(qpath)
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
                branch_and_bound_solve(qpath, path_instance, k)
        with pytest.raises(ValueError, match=rf"k={total + 1} exceeds the number"):
            branch_and_bound_solve(qpath, path_instance, total + 1)

    def test_node_limit(self, qpath, path_instance):
        with pytest.raises(RuntimeError):
            branch_and_bound_solve(qpath, path_instance, 4, node_limit=1)

    def test_stats_are_reported(self, qpath, path_instance):
        solution = branch_and_bound_solve(qpath, path_instance, 2)
        assert solution.method == "branch-and-bound"
        assert solution.stats["nodes"] >= 1
