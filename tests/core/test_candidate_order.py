"""Tie-break order of the greedy heuristics without per-tuple ``TupleRef``s.

``GreedyForCQ`` takes the earliest candidate in ``repr(TupleRef)`` order
among equally good ones, and ``DrasticGreedyForFullCQ`` orders each
relation's tuples by ``(-profit, repr(TupleRef))``.  Both now derive that
order from relation names and row reprs (``candidate_order`` /
``repr_order``) and build ``TupleRef`` objects only for the picks.  These
tests check the order against a plain ``sorted(..., key=repr)`` on
adversarial instances: relation names that prefix each other or need
different quote styles, ``1``/``1.0``/``True``/``"1"`` mixes, negative and
nested-tuple values, one- and multi-attribute relations.  Random instances
are drawn from ``REPRO_TEST_SEED``.
"""

import hashlib
import random
from dataclasses import dataclass

import pytest

from repro.core.greedy import candidate_order, drastic_curve
from repro.core.structures import endogenous_relations
from repro.data.database import Database
from repro.engine.backend import numpy_available
from repro.engine.provenance import ProvenanceIndex
from repro.query.atoms import Atom
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.session import Session
from repro.workloads.zipf import generate_zipf_path

from tests.conftest import repro_test_seed

BACKENDS = [
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not numpy_available(), reason="numpy unavailable"),
    ),
]

#: Names whose reprs prefix each other or use a different quote style.
NAME_POOL = ("R", "R1", "R10", "R1_x", "R_1", "r1", "R1'", 'R"1\'', "R1 ")

@dataclass(frozen=True)
class Spelled:
    """A value whose ``repr`` is chosen by the test."""

    text: str

    def __repr__(self) -> str:
        return self.text


#: ``"7"`` < ``"7 !"`` but ``"(7 !,)"`` < ``"(7,)"``: a key built from
#: ``repr(value)`` instead of ``repr(row)`` orders these two wrongly.
SPELLED = (Spelled("7"), Spelled("7 !"))

#: Values that are equal across types, negative, empty or nested.
VALUE_POOL = (
    1, 1.0, True, "1", -1, -2.5, 0, False, 0.0, 10, 2, -10,
    "", "a'b", 'a"b', None, (1, 2), (1, (2,)), ((1,), "x"), (-1, ()),
) + SPELLED

#: Atom shapes of the adversarial query: one- and two-attribute relations
#: along a path, full head (so Drastic applies too).
SHAPES = (("A",), ("A", "B"), ("B",), ("B", "C"), ("C",))


def adversarial_instance(names, rng, domain=None, rows_per_relation=14):
    """A full path CQ over ``SHAPES`` named ``names``, rows drawn by ``rng``
    from ``domain`` (default: 8 values of ``VALUE_POOL``)."""
    atoms = tuple(Atom(name, shape) for name, shape in zip(names, SHAPES))
    query = ConjunctiveQuery(("A", "B", "C"), atoms, name="Qadv")
    # A small per-instance domain keeps the join dense (and full of ties).
    if domain is None:
        domain = rng.sample(VALUE_POOL, 8)
    rows = {
        name: [
            tuple(rng.choice(domain) for _ in shape)
            for _ in range(rows_per_relation)
        ]
        for name, shape in zip(names, SHAPES)
    }
    return query, Database.from_dict(dict(zip(names, SHAPES)), rows)


def fixed_instance():
    return adversarial_instance(
        ("R1", "R10", "R1_x", "R1'", 'R"1\''),
        random.Random(7),
        domain=(1, True, 1.0, "1", -1, (1, (2,))) + SPELLED,
    )


def random_instances(count=6):
    rng = random.Random(repro_test_seed())
    return [
        adversarial_instance(tuple(rng.sample(NAME_POOL, len(SHAPES))), rng)
        for _ in range(count)
    ]


def instances():
    return [fixed_instance()] + random_instances()


@pytest.mark.parametrize("backend", BACKENDS)
def test_candidate_order_equals_sorting_by_tupleref_repr(backend):
    checked = 0
    for query, database in instances():
        with Session(database, backend=backend) as session:
            result = session.evaluate(query)
        index = ProvenanceIndex(result)
        refs = [index.ref_at(rid) for rid in range(index.ref_count())]
        # Lazily built refs are exactly the participating tuples, once each.
        assert len(set(refs)) == len(refs)
        assert set(refs) == result.participating_refs()
        for relations in (index.relation_names(), endogenous_relations(query)):
            wanted = set(relations)
            expected = sorted(
                (rid for rid, ref in enumerate(refs) if ref.relation in wanted),
                key=lambda rid: repr(refs[rid]),
            )
            assert candidate_order(index, relations) == expected
            checked += len(expected)
    assert checked


def reference_drastic_picks(query, result):
    """The per-relation Drastic picks by ``(-profit, repr(TupleRef))``."""
    profits = {}
    for witness in result.witnesses:
        for ref in witness.refs:
            profits[ref] = profits.get(ref, 0) + 1
    return [
        sorted(
            (((ref,), profit) for ref, profit in profits.items() if ref.relation == name),
            key=lambda pick: (-pick[1], repr(pick[0][0])),
        )
        for name in endogenous_relations(query)
    ]


def drastic_member_picks(query, database, backend):
    with Session(database, backend=backend) as session:
        result = session.evaluate(query)
        with session.activate():
            curve = drastic_curve(query, database)
    return result, [member.picks() for member in curve._curves]


@pytest.mark.parametrize("backend", BACKENDS)
def test_drastic_picks_equal_repr_sorted_reference(backend):
    for query, database in instances():
        result, picks = drastic_member_picks(query, database, backend)
        assert picks == reference_drastic_picks(query, result)


def _pinned_drastic(name):
    if name == "zipf-q6":
        return (
            parse_query("Q6(A, B) :- R1(A), R2(A, B)"),
            generate_zipf_path(r2_tuples=3000, alpha=0.5, seed=7),
        )
    if name == "zipf-path":
        return (
            parse_query("Qpath(A, B) :- R1(A), R2(A, B), R3(B)"),
            generate_zipf_path(r2_tuples=5000, alpha=1.1, seed=61),
        )
    if name == "vacuum":
        return (
            parse_query("Qv(A) :- R1(A), V()"),
            Database.from_dict({"R1": ["A"], "V": []}, {"R1": [(1,), (2,)], "V": [()]}),
        )
    return fixed_instance()


#: sha256 of ``repr`` of every member curve's picks, recorded with the
#: per-``TupleRef`` dict + ``sort(key=repr)`` implementation this replaced.
PINNED_DRASTIC_DIGESTS = {
    "zipf-q6": "1db04514cbc2dba5a94642745e509b171851bf1d11de92cc17eeab17b06ec777",
    "zipf-path": "b7b0e3055cdac7fa506d9f2a472ef8532ccb649eded508d17769e40ba7a8b284",
    "vacuum": "4e33a30a9516f1b7c1f7088040a814656358dae73c4fef77fd21e56e660fda31",
    "adversarial": "3db7dc9f006eb69fec08c646b679f1b67e12d9c87341bc640c00ba7afdfa2e64",
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(PINNED_DRASTIC_DIGESTS))
def test_drastic_picks_match_pinned_digest(name, backend):
    query, database = _pinned_drastic(name)
    _result, picks = drastic_member_picks(query, database, backend)
    digest = hashlib.sha256(repr(picks).encode()).hexdigest()
    assert digest == PINNED_DRASTIC_DIGESTS[name]
