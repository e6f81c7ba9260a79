"""NumPy hash groups built from value codes, and lazy ``TupleRef`` views.

The NumPy backend derives a join step's build side ``(table, groups)`` --
a key table plus a ``CsrPostings`` of each group's tids -- from
``RelationIndex.value_codes`` instead of bucketing tids in Python.  It must describe exactly the groups of the Python backend's
``{key: [tids]}`` table: the same keys (the first-occurring key object, so
``1``/``1.0``/``True`` mixes keep their first spelling) in the same order,
each with its tids ascending.  A cold greedy solve must not build any
relation's full ``TupleRef`` view.
"""

import random

import pytest

from repro.data.relation import Relation
from repro.engine.backend import CsrPostings, numpy_available, resolve_backend
from repro.engine.columnar import RelationIndex
from repro.session import Session
from repro.workloads.zipf import generate_zipf_path

from tests.conftest import repro_test_seed

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy unavailable")

MIXED = (1, 1.0, True, "1", 0, False, 0.0, -1, -1.0, 2, "a", (1, 2), (1.0, 2.0))


def assert_csr_matches_python(index, positions):
    expected = index.hash_groups(positions, resolve_backend("python"))
    table, groups = index.hash_groups(positions, resolve_backend("numpy"))
    assert isinstance(groups, CsrPostings)
    assert [repr(key) for key in table] == [repr(key) for key in expected]
    assert list(table.values()) == list(range(len(table)))
    assert len(groups.offsets) == len(table) + 1
    assert len(groups.order) == index.live_count
    for key, gid in table.items():
        assert groups[gid].tolist() == expected[key]
    return table


def mixed_index(rng, size, arity):
    rows = [tuple(rng.choice(MIXED) for _ in range(arity)) for _ in range(size)]
    return RelationIndex.from_rows("R", tuple("ABC"[:arity]), rows)


@needs_numpy
class TestCsrHashGroups:
    def test_one_attribute_keeps_first_spelling_of_equal_values(self):
        index = RelationIndex.from_rows(
            "R", ("A", "B"), [(True, "x"), (1, "y"), (1.0, "z"), ("1", "x"), (0.0, "y")]
        )
        table = assert_csr_matches_python(index, (0,))
        assert [repr(key) for key in table] == ["True", "'1'", "0.0"]

    def test_two_attribute_keys(self):
        index = RelationIndex.from_rows(
            "R", ("A", "B", "C"),
            [(1, "x", 0), (True, "x", 1), (1.0, "y", 2), (2, "x", 3), (1, "y", 4)],
        )
        table = assert_csr_matches_python(index, (0, 1))
        assert [repr(key) for key in table] == ["(1, 'x')", "(1.0, 'y')", "(2, 'x')"]
        assert_csr_matches_python(index, (1, 0))

    def test_empty_relation(self):
        index = RelationIndex(Relation("R", ("A", "B")))
        for positions in ((0,), (0, 1)):
            table, groups = index.hash_groups(positions, resolve_backend("numpy"))
            assert table == {} == index.hash_groups(positions, resolve_backend("python"))
            assert groups.order.size == 0 and groups.offsets.tolist() == [0]

    def test_random_mixes_match_python(self):
        rng = random.Random(repro_test_seed())
        for _ in range(20):
            arity = rng.choice((1, 2, 3))
            index = mixed_index(rng, rng.randrange(0, 40), arity)
            for positions in ((0,), tuple(range(arity)), tuple(reversed(range(arity)))):
                assert_csr_matches_python(index, positions)

    def test_dead_tids_leave_the_groups(self):
        """A ``without()`` successor groups its live tids only, on both
        backends, with no empty group for a key only dead rows carry."""
        rng = random.Random(repro_test_seed())
        for _ in range(20):
            arity = rng.choice((1, 2, 3))
            base = mixed_index(rng, rng.randrange(1, 40), arity)
            index = base.without(rng.sample(base.rows, rng.randrange(len(base.rows) + 1)))
            live = [tid for tid in range(len(index)) if index.live[tid]]
            assert index.live_count == len(live)
            for positions in ((0,), tuple(range(arity))):
                assert_csr_matches_python(index, positions)
                groups = index.hash_groups(positions, resolve_backend("python"))
                assert all(groups.values())
                assert sorted(t for tids in groups.values() for t in tids) == live

    def test_value_codes_follow_first_occurrence(self):
        index = RelationIndex.from_rows(
            "R", ("A", "B"), [(True, "a"), ("1", "b"), (1.0, "c"), (2, "d")]
        )
        codes, radix = index.value_codes(0, resolve_backend("numpy"))
        assert codes.tolist() == [0, 1, 0, 2]
        assert radix == 3


def test_only_successor_keeps_just_the_given_rows():
    """``only()`` (an insertion's seed table) shares the interning and lists
    exactly the given tids, sparse or dense, on every available backend."""
    rng = random.Random(repro_test_seed())
    base = RelationIndex.from_rows("R", ("A",), [(i,) for i in range(400)])
    for size in (0, 1, 7, 300, 400):
        chosen = sorted(rng.sample(range(400), size))
        index = base.only([(tid,) for tid in reversed(chosen)])
        assert index.rows is base.rows and index.ids is base.ids
        assert index.live_count == size
        assert index.live_tids(resolve_backend("python")) == chosen
        groups = index.hash_groups((0,), resolve_backend("python"))
        assert groups == {tid: [tid] for tid in chosen}
        if numpy_available():
            assert index.live_tids(resolve_backend("numpy")).tolist() == chosen
            assert_csr_matches_python(index, (0,))


@pytest.mark.parametrize(
    "backend",
    ["python", pytest.param("numpy", marks=needs_numpy)],
)
def test_cold_greedy_solve_builds_no_tupleref_view(backend):
    database = generate_zipf_path(r2_tuples=600, alpha=1.1, seed=5)
    query = "Qh(A) :- R1(A), R2(A, B), R3(B)"
    with Session(database, backend=backend) as session:
        solution = session.solve(query, 40, heuristic="greedy")
        indexes = session.evaluate(query).indexes
    assert solution.removed
    assert indexes and all(index._ref_view is None for index in indexes)
