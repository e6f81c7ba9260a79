"""Shared fixtures and helpers for the test-suite.

Besides a handful of canonical fixtures (the core queries, tiny instances)
this module centralises the *random generators* used by the property-based
tests:

* :func:`random_query` / the hypothesis strategy :func:`queries` -- random
  self-join-free CQs with distinct attribute sets per relation (the paper's
  standing assumption, Section 3.2);
* :func:`random_instance` -- a small random instance for a given query, with
  a bounded domain so brute force stays feasible.
"""

from __future__ import annotations

import os
import random
from typing import List

import pytest
from hypothesis import strategies as st

from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.atoms import Atom
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query

ATTRIBUTE_POOL = ("A", "B", "C", "D", "E")

#: Fallback seed of the differential/property suites when ``REPRO_TEST_SEED``
#: is unset.  CI runs the mutation-fuzz job with several explicit seeds.
DEFAULT_TEST_SEED = 101


def repro_test_seed(default: int = DEFAULT_TEST_SEED) -> int:
    """The seed of the seeded property suites (``REPRO_TEST_SEED`` env knob).

    Shared plumbing with the benchmark harnesses: ``check_regression.py``
    and ``bench_service.py`` stamp the same value into their ``--record``
    trajectory entries, so a failing CI leg names the exact seed to export
    locally for a byte-identical replay.
    """
    raw = os.environ.get("REPRO_TEST_SEED", "")
    try:
        return int(raw)
    except ValueError:
        return default


def pytest_report_header(config) -> str:
    """Print the active seed so any failure log says how to reproduce it."""
    return (
        f"REPRO_TEST_SEED={repro_test_seed()} "
        "(export REPRO_TEST_SEED=<n> to replay the seeded property suites)"
    )


@pytest.fixture(scope="session")
def test_seed() -> int:
    """The resolved ``REPRO_TEST_SEED`` value, as a fixture."""
    return repro_test_seed()


# --------------------------------------------------------------------------- #
# Plain-python random generators (used by seeded, deterministic tests)
# --------------------------------------------------------------------------- #
def random_query(
    rng: random.Random,
    max_relations: int = 4,
    max_attributes: int = 4,
    allow_boolean: bool = True,
) -> ConjunctiveQuery:
    """A random self-join-free CQ with pairwise-distinct attribute sets."""
    attributes = list(ATTRIBUTE_POOL[:max_attributes])
    n_relations = rng.randint(1, max_relations)
    used_sets: set = set()
    atoms: List[Atom] = []
    guard = 0
    while len(atoms) < n_relations and guard < 200:
        guard += 1
        size = rng.randint(1, len(attributes))
        attrs = tuple(sorted(rng.sample(attributes, size)))
        if attrs in used_sets:
            continue
        used_sets.add(attrs)
        atoms.append(Atom(f"R{len(atoms) + 1}", attrs))
    body_attributes = sorted(set().union(*(a.attribute_set for a in atoms)))
    head_size = rng.randint(0, len(body_attributes)) if allow_boolean else rng.randint(
        1, len(body_attributes)
    )
    head = tuple(sorted(rng.sample(body_attributes, head_size)))
    return ConjunctiveQuery(head, tuple(atoms), name="Qrand")


def random_instance(
    query: ConjunctiveQuery,
    rng: random.Random,
    max_tuples_per_relation: int = 4,
    domain_size: int = 3,
) -> Database:
    """A small random instance for ``query`` (bounded so brute force works)."""
    relations = []
    for atom in query.atoms:
        relation = Relation(atom.name, atom.attributes)
        count = rng.randint(0, max_tuples_per_relation)
        for _ in range(count):
            relation.insert(tuple(rng.randint(0, domain_size - 1) for _ in atom.attributes))
        if atom.is_vacuum and rng.random() < 0.7:
            relation.insert(())
        relations.append(relation)
    return Database(relations)


# --------------------------------------------------------------------------- #
# Hypothesis strategies
# --------------------------------------------------------------------------- #
@st.composite
def queries(draw, max_relations: int = 4, max_attributes: int = 4, allow_boolean: bool = True):
    """Hypothesis strategy producing random self-join-free CQs."""
    seed = draw(st.integers(min_value=0, max_value=10_000_000))
    rng = random.Random(seed)
    return random_query(
        rng,
        max_relations=max_relations,
        max_attributes=max_attributes,
        allow_boolean=allow_boolean,
    )


@st.composite
def query_instance_pairs(
    draw,
    max_relations: int = 3,
    max_attributes: int = 3,
    max_tuples_per_relation: int = 3,
    domain_size: int = 2,
    allow_boolean: bool = True,
):
    """Hypothesis strategy producing (query, small instance) pairs."""
    seed = draw(st.integers(min_value=0, max_value=10_000_000))
    rng = random.Random(seed)
    query = random_query(
        rng,
        max_relations=max_relations,
        max_attributes=max_attributes,
        allow_boolean=allow_boolean,
    )
    database = random_instance(
        query,
        rng,
        max_tuples_per_relation=max_tuples_per_relation,
        domain_size=domain_size,
    )
    return query, database


# --------------------------------------------------------------------------- #
# Canonical fixtures
# --------------------------------------------------------------------------- #
@pytest.fixture
def qpath():
    """The core hard query Qpath(A,B) :- R1(A), R2(A,B), R3(B)."""
    return parse_query("Qpath(A, B) :- R1(A), R2(A, B), R3(B)")


@pytest.fixture
def figure1_database():
    """The running example of Figure 1 (three binary relations, 10 tuples)."""
    return Database.from_dict(
        {"R1": ["A", "B"], "R2": ["B", "C"], "R3": ["C", "E"]},
        {
            "R1": [("a1", "b1"), ("a2", "b2"), ("a3", "b3")],
            "R2": [("b1", "c1"), ("b2", "c2"), ("b2", "c3"), ("b3", "c3")],
            "R3": [("c1", "e1"), ("c2", "e3"), ("c3", "e3")],
        },
    )


@pytest.fixture
def figure1_full_query():
    """Q1(A,B,C,E) of Figure 1 (the full chain join)."""
    return parse_query("Q1(A, B, C, E) :- R1(A, B), R2(B, C), R3(C, E)")


@pytest.fixture
def figure1_projected_query():
    """Q2(A,E) of Figure 1 (the projected chain join)."""
    return parse_query("Q2(A, E) :- R1(A, B), R2(B, C), R3(C, E)")


@pytest.fixture
def path_instance():
    """A small Qpath instance where greedy and exact answers are easy to check."""
    return Database.from_dict(
        {"R1": ["A"], "R2": ["A", "B"], "R3": ["B"]},
        {
            "R1": [("a1",), ("a2",), ("a3",)],
            "R2": [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a3", "b3")],
            "R3": [("b1",), ("b2",), ("b3",)],
        },
    )


# --------------------------------------------------------------------------- #
# Backend-agnostic comparison helpers
# --------------------------------------------------------------------------- #
def packed_columns(result) -> List[List[int]]:
    """A result's ``ref_columns`` as plain lists of Python ints.

    The NumPy backend packs the columns as ``int64`` ndarrays; normalizing
    both sides lets byte-identity assertions compare values regardless of
    the representation under test.
    """
    from repro.engine.backend import as_id_list

    return [as_id_list(column) for column in result.ref_columns]


def packed_outputs(result) -> List[int]:
    """A result's ``witness_outputs`` as a plain list of Python ints."""
    from repro.engine.backend import as_id_list

    return as_id_list(result.witness_outputs)
