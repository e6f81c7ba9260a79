"""Unit tests for exact dangling-tuple removal."""

from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine.semijoin import remove_dangling_tuples
from repro.query.parser import parse_query
from repro.session import Session


CHAIN = parse_query("Q(A, B, C) :- R1(A, B), R2(B, C)")


def chain_db():
    return Database.from_dict(
        {"R1": ["A", "B"], "R2": ["B", "C"]},
        {
            "R1": [(1, 10), (2, 20), (3, 30)],          # (3, 30) dangles
            "R2": [(10, 100), (20, 200), (99, 999)],    # (99, 999) dangles
        },
    )


class TestExactDanglingRemoval:
    def test_removes_exactly_the_dangling_tuples(self):
        reduced, removed = remove_dangling_tuples(CHAIN, chain_db())
        assert removed == 2
        assert (3, 30) not in reduced.relation("R1")
        assert (99, 999) not in reduced.relation("R2")
        assert len(reduced.relation("R1")) == 2

    def test_result_preserved(self):
        database = chain_db()
        reduced, _ = remove_dangling_tuples(CHAIN, database)
        assert set(Session(reduced).evaluate(CHAIN).output_rows) == set(
            Session(database).evaluate(CHAIN).output_rows
        )

    def test_untouched_extra_relations(self):
        database = chain_db()
        database.add_relation(Relation("Other", ("X",), [(1,)]))
        reduced, _ = remove_dangling_tuples(CHAIN, database)
        assert len(reduced.relation("Other")) == 1

    def test_cyclic_query(self):
        triangle = parse_query("Q(A, B, C) :- R1(A, B), R2(B, C), R3(C, A)")
        database = Database.from_dict(
            {"R1": ["A", "B"], "R2": ["B", "C"], "R3": ["C", "A"]},
            {
                "R1": [(1, 2), (5, 6)],
                "R2": [(2, 3), (6, 7)],
                "R3": [(3, 1)],          # only the 1-2-3 triangle closes
            },
        )
        reduced, removed = remove_dangling_tuples(triangle, database)
        assert removed == 2
        assert len(reduced.relation("R1")) == 1

