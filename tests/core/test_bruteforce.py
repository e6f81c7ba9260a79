"""Unit tests for the brute-force baseline, the one exact oracle.

Answers and search statistics are pinned on seeded instances (a path, a
projection, a query with a 0-ary atom and the string-valued Zipf path) on
both array backends. The optimum is checked against a re-evaluation of
every subset of input tuples on tiny instances, which shares neither the
witness bitmasks nor the endogenous pruning. Brute force in turn bounds the
other solvers on random queries drawn from ``REPRO_TEST_SEED``:
``ComputeADP`` meets it on poly-time queries and the heuristics never beat
it.
"""

import random
from itertools import combinations

import pytest

from repro.core.bruteforce import bruteforce_optimum, bruteforce_solve
from repro.core.decidability import is_poly_time
from repro.core.greedy import drastic_curve, greedy_curve
from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.backend import numpy_available
from repro.engine.evaluate import evaluate_in_context as evaluate
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
#: removed_outputs, subsets_checked, candidates)``, recorded on both
#: backends. Every optimum size and candidate count equals the one the
#: deleted branch-and-bound solver recorded on the same instances.
PINNED_SEARCHES = {
    ('path', True, 1): ((('R1', (0,)),), 2, 2, 7),
    ('path', True, 2): ((('R1', (0,)),), 2, 2, 7),
    ('path', True, 3): ((('R1', (1,)),), 3, 3, 7),
    ('path', True, 5): ((('R1', (0,)), ('R1', (1,))), 5, 9, 7),
    ('path', True, 7): ((('R1', (0,)), ('R1', (1,)), ('R1', (2,))), 7, 30, 7),
    ('path', False, 1): ((('R1', (0,)),), 2, 2, 16),
    ('path', False, 2): ((('R1', (0,)),), 2, 2, 16),
    ('path', False, 3): ((('R1', (1,)),), 3, 3, 16),
    ('path', False, 5): ((('R1', (0,)), ('R1', (1,))), 5, 18, 16),
    ('path', False, 7): ((('R1', (0,)), ('R1', (1,)), ('R1', (2,))), 7, 138, 16),
    ('projection', True, 1): ((('R1', (1,)),), 1, 2, 9),
    ('projection', True, 2): ((('R1', (1,)), ('R1', (3,))), 2, 11, 9),
    ('projection', True, 3): ((('R1', (1,)), ('R1', (3,)), ('R1', (4,))), 3, 47, 9),
    ('projection', True, 4): ((('R1', (1,)), ('R1', (3,)), ('R1', (4,)), ('R1', (5,))), 4, 131, 9),
    ('projection', False, 1): ((('R1', (1,)),), 1, 2, 16),
    ('projection', False, 2): ((('R1', (1,)), ('R1', (3,))), 2, 18, 16),
    ('projection', False, 3): ((('R1', (1,)), ('R1', (3,)), ('R1', (4,))), 3, 138, 16),
    ('projection', False, 4): ((('R1', (1,)), ('R1', (3,)), ('R1', (4,)), ('R1', (5,))), 4, 698, 16),
    ('vacuum', True, 1): ((('V', ()),), 6, 2, 1),
    ('vacuum', True, 6): ((('V', ()),), 6, 2, 1),
    ('vacuum', False, 1): ((('R1', (0,)),), 2, 2, 10),
    ('vacuum', False, 6): ((('V', ()),), 6, 11, 10),
    ('zipf-qh', True, 2): ((('R1', ('a0',)), ('R1', ('a1',))), 2, 25, 23),
    ('zipf-qh', True, 3): ((('R1', ('a0',)), ('R1', ('a1',)), ('R1', ('a10',))), 3, 278, 23),
    ('zipf-qh', True, 4): ((('R1', ('a0',)), ('R1', ('a1',)), ('R1', ('a10',)), ('R1', ('a2',))), 4, 2049, 23),
    ('zipf-qh', False, 2): ((('R1', ('a0',)), ('R1', ('a1',))), 2, 85, 83),
    ('zipf-qh', False, 3): ((('R1', ('a0',)), ('R1', ('a1',)), ('R1', ('a10',))), 3, 3488, 83),
    ('zipf-qpath', True, 12): ((('R1', ('a0',)),), 12, 2, 23),
    ('zipf-qpath', True, 13): ((('R1', ('a0',)), ('R1', ('a1',))), 22, 25, 23),
    ('zipf-qpath', True, 30): ((('R1', ('a0',)), ('R1', ('a1',)), ('R1', ('a2',))), 30, 279, 23),
    ('zipf-qpath', False, 12): ((('R1', ('a0',)),), 12, 2, 83),
    ('zipf-qpath', False, 13): ((('R1', ('a0',)), ('R1', ('a1',))), 22, 85, 83),
    ('zipf-qpath', False, 30): ((('R1', ('a0',)), ('R1', ('a1',)), ('R1', ('a2',))), 30, 3489, 83),
}


def reevaluated_optima(query, database):
    """``size -> most outputs some removal of that many input tuples
    deletes``, found by re-evaluating the query on every subset of the
    database's tuples (every relation, dangling tuples included)."""
    refs = database.all_refs()
    total = evaluate(query, database).output_count()
    best = {}
    for size in range(len(refs) + 1):
        best[size] = max(
            total - evaluate(query, database.without(subset)).output_count()
            for subset in combinations(refs, size)
        )
        if best[size] == total:
            break
    return best


def assert_minimal_by_reevaluation(query, database, endogenous_only=True):
    """Brute force's optimum, for every ``k``, is the least subset size that
    the re-evaluation finds deleting ``k`` outputs."""
    best = reevaluated_optima(query, database)
    for k in range(1, max(best.values()) + 1):
        solution = bruteforce_solve(
            query, database, k, endogenous_only=endogenous_only
        )
        expected = min(size for size, removed in best.items() if removed >= k)
        assert solution.size == expected, (str(query), k)
        assert solution.verify(database) == solution.removed_outputs >= k


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

    def test_projection_superadditivity(self):
        # Killing the single output takes both tuples, though deleting either
        # one alone kills nothing.
        query = parse_query("Q(A) :- R1(A, B)")
        database = Database.from_dict(
            {"R1": ["A", "B"]}, {"R1": [(1, 10), (1, 11)]}
        )
        solution = bruteforce_solve(query, database, 1)
        assert solution.size == 2
        assert solution.removed_outputs == 1


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "name,endogenous_only,k",
    list(PINNED_SEARCHES),
    ids=[f"{n}-{'endo' if e else 'all'}-k{k}" for n, e, k in PINNED_SEARCHES],
)
def test_matches_pinned_search(name, endogenous_only, k, backend):
    query, database = pinned_instance(name)
    removed, removed_outputs, subsets_checked, candidates = PINNED_SEARCHES[
        (name, endogenous_only, k)
    ]
    with Session(database, backend=backend) as session, session.activate():
        solution = bruteforce_solve(
            query, database, k, endogenous_only=endogenous_only,
            max_candidates=90,
        )
        assert solution.verify(database) == removed_outputs
    assert solution.removed == frozenset(TupleRef(r, v) for r, v in removed)
    assert solution.removed_outputs == removed_outputs
    assert solution.stats == {
        "subsets_checked": subsets_checked, "candidates": candidates,
    }


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_k_on_qpath_is_minimal(backend, qpath, path_instance):
    with Session(path_instance, backend=backend) as session, session.activate():
        assert_minimal_by_reevaluation(qpath, path_instance)


@pytest.mark.parametrize("backend", BACKENDS)
def test_minimal_on_random_hard_instances(backend):
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
        with Session(database, backend=backend) as session, session.activate():
            if session.output_size(query) == 0:
                continue
            assert_minimal_by_reevaluation(query, database)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("endogenous_only", [True, False])
def test_minimal_on_random_queries(backend, endogenous_only):
    rng = random.Random(23)
    checked = 0
    while checked < 10:
        query = random_query(rng, max_relations=3, max_attributes=3)
        database = random_instance(
            query, rng, max_tuples_per_relation=3, domain_size=2
        )
        with Session(database, backend=backend) as session, session.activate():
            if session.output_size(query) == 0:
                continue
            checked += 1
            assert_minimal_by_reevaluation(query, database, endogenous_only)


def harmonic(k):
    return sum(1.0 / i for i in range(1, k + 1))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("endogenous_only", [True, False])
def test_bounds_the_solvers_on_seeded_random_queries(
    backend, endogenous_only, test_seed
):
    """On random CQs and their full versions: ``ComputeADP`` meets the
    optimum on poly-time queries, greedy (and Drastic on full CQs) never
    beats it, and greedy stays within ``H_k`` of it on full CQs (Theorem 5)."""
    rng = random.Random(test_seed)
    checked = 0
    while checked < 12:
        drawn = random_query(rng, max_relations=3, max_attributes=3)
        database = random_instance(
            drawn, rng, max_tuples_per_relation=4, domain_size=3
        )
        with Session(database, backend=backend) as session, session.activate():
            if session.output_size(drawn) == 0:
                continue
            checked += 1
            for query in [drawn] if drawn.is_full else [drawn, drawn.as_full()]:
                total = session.output_size(query)
                greedy = greedy_curve(query, database, endogenous_only=endogenous_only)
                drastic = drastic_curve(query, database) if query.is_full else None
                for k in sorted({1, (total + 1) // 2, total}):
                    optimum = bruteforce_optimum(
                        query, database, k, endogenous_only=endogenous_only,
                        max_candidates=40,
                    )
                    context = (str(query), k)
                    if is_poly_time(query):
                        assert session.solve(
                            query, k, endogenous_only=endogenous_only
                        ).size == optimum, context
                    assert greedy.cost(k) >= optimum, context
                    if drastic is not None:
                        assert drastic.cost(k) >= optimum, context
                        assert greedy.cost(k) <= harmonic(k) * optimum, context
