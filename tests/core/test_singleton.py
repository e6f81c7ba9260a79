"""Unit tests for the Singleton base case (Definition 10 / Algorithm 3)."""

import math
import random

import pytest

from repro.core.bruteforce import bruteforce_optimum
from repro.core.singleton import is_singleton, singleton_curve, singleton_relation
from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.backend import as_id_list, numpy_available, python_backend, resolve_backend
from repro.engine.columnar import RelationIndex
from repro.query.parser import parse_query
from repro.session import Session

from tests.row_oracle import singleton_curve_rows


class TestSingletonDetection:
    def test_case1_detection(self):
        # attr(R1) = {A} is contained in every relation and in the head.
        query = parse_query("Q(A, B) :- R1(A), R2(A, B)")
        assert singleton_relation(query) == "R1"

    def test_case2_detection(self):
        # head {A} is contained in attr(R1) = {A,B} which is minimal.
        query = parse_query("Q(A) :- R1(A, B), R2(A, B, C)")
        assert singleton_relation(query) == "R1"

    def test_vacuum_relation_is_singleton(self):
        query = parse_query("Q(A) :- R0(), R1(A)")
        assert singleton_relation(query) == "R0"

    def test_q7_is_singleton(self):
        query = parse_query(
            "Q7(A, B, C, D, E, F, G) :- R1(A, B, C), R2(A, B, C, D, E), "
            "R3(A, B, C, D, G), R4(A, B, C, F)"
        )
        assert singleton_relation(query) == "R1"

    def test_qpath_is_not_singleton(self):
        assert not is_singleton(parse_query("Qpath(A, B) :- R1(A), R2(A, B), R3(B)"))

    def test_qswing_is_not_singleton(self):
        # Condition (2) of Definition 10 fails: attr(R3) = {B} is incomparable
        # with head {A}.
        assert not is_singleton(parse_query("Qswing(A) :- R2(A, B), R3(B)"))

    def test_non_singleton_raises(self):
        query = parse_query("Qswing(A) :- R2(A, B), R3(B)")
        database = Database.empty_for_query(query)
        with pytest.raises(ValueError):
            singleton_curve(query, database)


class TestSingletonCase1:
    def setup_method(self):
        self.query = parse_query("Q(A, B) :- R1(A), R2(A, B)")
        self.database = Database.from_dict(
            {"R1": ["A"], "R2": ["A", "B"]},
            {
                "R1": [(1,), (2,), (3,)],
                "R2": [(1, 10), (1, 11), (1, 12), (2, 20), (3, 30), (3, 31)],
            },
        )

    def test_profits_sorted_by_group_size(self):
        curve = singleton_curve(self.query, self.database)
        assert curve.optimal
        # Group sizes are 3, 2, 1: removing one tuple removes 3 outputs, two
        # tuples remove 5, three remove all 6.
        assert curve.cost(3) == 1
        assert curve.cost(4) == 2
        assert curve.cost(6) == 3
        assert curve.max_gain() == 6

    def test_solutions_come_from_the_singleton_relation(self):
        curve = singleton_curve(self.query, self.database)
        assert {ref.relation for ref in curve.solution(4)} == {"R1"}

    def test_matches_bruteforce(self):
        for k in range(1, 7):
            assert singleton_curve(self.query, self.database).cost(k) == \
                bruteforce_optimum(self.query, self.database, k)

    def test_dangling_singleton_tuples_are_ignored(self):
        self.database.relation("R1").insert((99,))
        curve = singleton_curve(self.query, self.database)
        assert curve.max_gain() == 6
        assert all(ref.values != (99,) for k in (1, 6) for ref in curve.solution(k))


class TestSingletonCase2:
    def setup_method(self):
        # head {A} ⊆ attr(R1) = {A, B} ⊆ attr(R2) = {A, B, C}
        self.query = parse_query("Q(A) :- R1(A, B), R2(A, B, C)")
        self.database = Database.from_dict(
            {"R1": ["A", "B"], "R2": ["A", "B", "C"]},
            {
                "R1": [(1, 10), (1, 11), (2, 20), (3, 30), (3, 31), (3, 32)],
                "R2": [(1, 10, 0), (1, 11, 0), (2, 20, 0), (2, 20, 1),
                        (3, 30, 0), (3, 31, 0), (3, 32, 0)],
            },
        )

    def test_costs_sorted_ascending(self):
        curve = singleton_curve(self.query, self.database)
        # Output costs: a=2 needs 1 tuple, a=1 needs 2, a=3 needs 3.
        assert curve.cost(1) == 1
        assert curve.cost(2) == 3
        assert curve.cost(3) == 6
        assert curve.optimal

    def test_solution_removes_whole_groups(self):
        curve = singleton_curve(self.query, self.database)
        solution = curve.solution(2)
        assert {ref.relation for ref in solution} == {"R1"}
        assert len(solution) == 3

    def test_matches_bruteforce(self):
        for k in (1, 2, 3):
            assert singleton_curve(self.query, self.database).cost(k) == \
                bruteforce_optimum(self.query, self.database, k)

    def test_dangling_tuples_not_counted_in_cost(self):
        self.database.relation("R1").insert((1, 99))  # no R2 partner
        curve = singleton_curve(self.query, self.database)
        assert curve.cost(2) == 3


class TestSingletonEdgeCases:
    def test_empty_result(self):
        query = parse_query("Q(A, B) :- R1(A), R2(A, B)")
        database = Database.from_dict({"R1": ["A"], "R2": ["A", "B"]},
                                      {"R1": [(1,)], "R2": []})
        curve = singleton_curve(query, database)
        assert curve.max_gain() == 0

    def test_vacuum_singleton_removes_everything_with_one_tuple(self):
        query = parse_query("Q(A) :- R0(), R1(A)")
        database = Database.from_dict({"R0": [], "R1": ["A"]},
                                      {"R0": [()], "R1": [(1,), (2,), (3,)]})
        curve = singleton_curve(query, database)
        assert curve.cost(3) == 1
        assert curve.solution(3) == {TupleRef("R0", ())}


# --------------------------------------------------------------------------- #
# Case 1 tid-level build vs the row-oracle curve, on both backends
# --------------------------------------------------------------------------- #
BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

#: Mixed int/str values: repr order ("'a'" < "0" < "10" < "2") differs from
#: value order, and no two values are cross-type equal.
MIXED_DOMAIN = [0, 1, 2, 10, 11, "a", "b", "10", "z"]

Q6 = parse_query("Q6(A, B) :- R1(A), R2(A, B)")
Q6_SWAPPED = parse_query("Q6(A, B) :- R2(A, B), R1(A)")
Q_PROJECTED = parse_query("Qp(A) :- R1(A), R2(A, B)")
Q7 = parse_query(
    "Q7(A, B, C, D, E, F, G) :- R1(A, B, C), R2(A, B, C, D, E), "
    "R3(A, B, C, D, G), R4(A, B, C, F)"
)
Q_VACUUM = parse_query("Qv(A, B) :- R0(), R1(A), R2(A, B)")


def _curve(query, database, backend):
    with Session(database, backend=backend) as session:
        with session.activate():
            return singleton_curve(query, session.database)


def _random_case1_instance(query, rng, empty_relation=None):
    """Random rows over MIXED_DOMAIN; the singleton relation holds extra
    dangling tuples, the wider relations reuse its values so most rows join."""
    singleton = singleton_relation(query)
    keys = [
        tuple(rng.choice(MIXED_DOMAIN) for _ in query.atom(singleton).attributes)
        for _ in range(rng.randint(4, 12))
    ]
    schema, rows = {}, {}
    for atom in query.atoms:
        schema[atom.name] = list(atom.attributes)
        if atom.is_vacuum:
            rows[atom.name] = [()]
        elif atom.name == singleton:
            rows[atom.name] = keys + [("dangling",) * atom.arity]
        elif atom.name == empty_relation:
            rows[atom.name] = []
        else:
            shared = query.atom(singleton).attributes
            extra = [a for a in atom.attributes if a not in shared]
            rows[atom.name] = []
            for _ in range(rng.randint(5, 30)):
                values = dict(zip(shared, rng.choice(keys)))
                values.update((a, rng.choice(MIXED_DOMAIN)) for a in extra)
                rows[atom.name].append(tuple(values[a] for a in atom.attributes))
    return Database.from_dict(schema, rows)


CASE1_QUERIES = [
    ("q6", Q6, None),
    ("q6-swapped", Q6_SWAPPED, None),
    ("projected", Q_PROJECTED, None),
    ("q7", Q7, None),
    ("vacuum", Q_VACUUM, None),
    ("empty", Q6, "R2"),
]


class TestSingletonCase1Parity:
    """``singleton_curve`` picks equal :func:`singleton_curve_rows`'s."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "query,empty_relation",
        [(q, e) for _, q, e in CASE1_QUERIES],
        ids=[name for name, _, _ in CASE1_QUERIES],
    )
    def test_picks_match_row_oracle(self, query, empty_relation, seed, backend):
        rng = random.Random(seed * 7919 + len(query.atoms))
        database = _random_case1_instance(query, rng, empty_relation)
        curve = _curve(query, database, backend)
        expected = singleton_curve_rows(query, database)
        assert repr(curve.picks()) == repr(expected.picks())
        assert curve.max_gain() == expected.max_gain()
        if empty_relation is not None:
            assert curve.max_gain() == 0


class TestSingletonCase1Pinned:
    """cost / solution / max_gain for every ``k`` on one mixed-type instance."""

    DATABASE = {
        "R1": [(1,), (2,), (3,), ("x",), (10,), (99,)],
        "R2": [(1, 10), (1, 11), (1, 12), (2, 20), (3, 30), (3, 31),
               ("x", 1), ("x", 2), (10, 5)],
    }
    #: Profits 3, 2, 2, 1, 1; ties by repr: "'x'" < "3" and "10" < "2".
    ORDER = [(1,), ("x",), (3,), (10,), (2,)]
    COSTS = [0, 1, 1, 1, 2, 2, 3, 3, 4, 5]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_k(self, backend):
        database = Database.from_dict({"R1": ["A"], "R2": ["A", "B"]}, self.DATABASE)
        curve = _curve(Q6, database, backend)
        assert curve.optimal
        assert curve.max_gain() == 9
        assert curve.picks() == [
            ((TupleRef("R1", key),), gain)
            for key, gain in zip(self.ORDER, [3, 2, 2, 1, 1])
        ]
        for k, cost in enumerate(self.COSTS):
            assert curve.cost(k) == cost
            expected = {TupleRef("R1", key) for key in self.ORDER[:cost]}
            assert curve.solution(k) == expected
        assert curve.cost(10) == math.inf
        with pytest.raises(ValueError):
            curve.solution(10)


class TestSingletonCase1StoredRefs:
    """Picks name the tuples R1 stores, whichever atom the join reads first.

    ``R1`` stores ``1`` and ``2.0``; ``R2`` joins them through the
    cross-type-equal ``True``/``1.0`` and ``2``.  The output rows carry
    whichever value the join bound first, but a deletion must name a
    stored row.
    """

    SCHEMA = {"R1": ["A"], "R2": ["A", "B"]}
    ROWS = {"R1": [(1,), (2.0,)], "R2": [(True, 10), (1.0, 11), (2, 20)]}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_solution_refs_are_stored_refs(self, backend):
        database = Database.from_dict(self.SCHEMA, self.ROWS)
        stored = sorted(repr(ref) for ref in database.relation("R1").refs())
        picks = []
        for query in (Q6, Q6_SWAPPED):
            curve = _curve(query, database, backend)
            assert sorted(repr(ref) for ref in curve.solution(3)) == stored
            picks.append(repr(curve.picks()))
        assert picks[0] == picks[1]
        assert picks[0] == repr(
            [((TupleRef("R1", (1,)),), 2), ((TupleRef("R1", (2.0,)),), 1)]
        )


class TestReprRank:
    """``RelationIndex.repr_rank``: the Case 1 tie-break, per index version."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rank_follows_repr_and_resets_on_extension(self, backend):
        kernels = resolve_backend(backend)
        index = RelationIndex.from_rows("R1", ("A",), [(2,), ("a",), (10,)])
        # repr order: "'a'" < "10" < "2".
        assert as_id_list(index.repr_rank(kernels)) == [2, 0, 1]
        extended = RelationIndex.extended(index, [("0",), (1,)])
        # The appended tids 3 ("'0'") and 4 ("1") land inside the order.
        assert as_id_list(extended.repr_rank(kernels)) == [4, 1, 3, 0, 2]
        assert as_id_list(index.repr_rank(kernels)) == [2, 0, 1]

    def test_multi_attribute_rank_uses_the_row_repr(self):
        index = RelationIndex.from_rows("R", ("A", "B"), [(1, "b"), (1, "a")])
        assert as_id_list(index.repr_rank(python_backend())) == [1, 0]
