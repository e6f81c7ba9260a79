"""Unit tests for the delta-semijoin provenance filter.

``delta_filter_result`` must be observationally equivalent to a fresh
evaluation on ``database.without(removed)``: same output set, same witness
set, same provenance answers -- only the iteration order may differ: the
filter keeps its parent's witness order, and a parent grown by an
insertion delta holds its new witnesses at the end (re-inserted rows under
their old tids) where a fresh join emits them in join order.
"""

import random

import pytest

from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.backend import as_id_list, numpy_available, resolve_backend
from repro.engine.delta import _compact_outputs, delta_filter_result
from repro.engine.evaluate import evaluate_in_context
from repro.obs.trace import Tracer, use_tracer
from repro.query.parser import parse_query
from repro.session import Session
from repro.workloads.queries import Q1, Q6, QPATH_EXP
from repro.workloads.tpch import generate_tpch
from repro.workloads.zipf import generate_zipf_path

from tests.conftest import repro_test_seed

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)


def _witness_set(result):
    return {w.refs for w in result.witnesses}


def _instances():
    return [
        ("tpch", Q1, generate_tpch(total_tuples=80, seed=7)),
        ("zipf", QPATH_EXP, generate_zipf_path(r2_tuples=100, alpha=0.5, seed=13)),
        ("zipf-easy", Q6, generate_zipf_path(r2_tuples=100, alpha=1.0, seed=13)),
    ]


INSTANCES = _instances()
IDS = [name for name, _, _ in INSTANCES]


@pytest.mark.parametrize("name,query,database", INSTANCES, ids=IDS)
@pytest.mark.parametrize("stride", [1, 3, 7])
def test_delta_filter_matches_fresh_evaluation(name, query, database, stride):
    base = evaluate_in_context(query, database)
    refs = sorted(base.participating_refs(), key=repr)[::stride]

    filtered = delta_filter_result(base, refs)
    fresh = evaluate_in_context(query, database.without(refs), use_cache=False)

    assert set(filtered.output_rows) == set(fresh.output_rows)
    assert _witness_set(filtered) == _witness_set(fresh)
    assert filtered.witness_count() == fresh.witness_count()
    assert filtered.output_count() == fresh.output_count()
    assert filtered.participating_refs() == fresh.participating_refs()


def test_delta_filter_preserves_provenance_queries():
    database = generate_tpch(total_tuples=80, seed=7)
    base = evaluate_in_context(Q1, database)
    refs = sorted(base.participating_refs(), key=repr)
    first, rest = refs[:4], refs[4:10]

    filtered = delta_filter_result(base, first)
    fresh = evaluate_in_context(Q1, database.without(first), use_cache=False)
    # Follow-up provenance questions on the filtered result match a fresh one.
    assert filtered.outputs_removed_by(rest) == fresh.outputs_removed_by(rest)
    assert filtered.outputs_removed_by(first) == 0  # already gone


def test_delta_filter_noop_returns_same_object():
    database = generate_tpch(total_tuples=60, seed=7)
    base = evaluate_in_context(Q1, database)
    unknown = [TupleRef("R_nonexistent", (1,)), TupleRef("PS", ("nope", "nope"))]
    assert delta_filter_result(base, unknown) is base
    assert delta_filter_result(base, []) is base


def test_delta_filter_remove_everything():
    database = generate_tpch(total_tuples=60, seed=7)
    base = evaluate_in_context(Q1, database)
    filtered = delta_filter_result(base, base.participating_refs())
    assert filtered.output_count() == 0
    assert filtered.witness_count() == 0
    assert filtered.participating_refs() == set()


def test_delta_filter_vacuum_deletion_kills_everything():
    query = parse_query("Q(A) :- R1(A), R0()")
    database = Database.from_dict(
        {"R1": ["A"], "R0": []}, {"R1": [(1,), (2,)], "R0": [()]}
    )
    base = evaluate_in_context(query, database)
    assert base.output_count() == 2
    filtered = delta_filter_result(base, [TupleRef("R0", ())])
    assert filtered.output_count() == 0
    assert filtered.witness_count() == 0


def test_delta_filter_shares_interning_tables():
    database = generate_tpch(total_tuples=60, seed=7)
    base = evaluate_in_context(Q1, database)
    refs = sorted(base.participating_refs(), key=repr)[:3]
    filtered = delta_filter_result(base, refs)
    # No re-interning: the filtered provenance reuses the parent's indexes.
    assert filtered.indexes is base.indexes or all(
        f is b
        for f, b in zip(filtered.indexes, base.indexes)
    )


def _first_occurrence_outputs(rng, witnesses, outputs):
    """A witness->output column over ``outputs`` ids, numbered by first
    witness occurrence, with the witnesses of one output interleaved."""
    raw = [rng.randrange(outputs) for _ in range(witnesses)]
    numbering = {}
    return [numbering.setdefault(value, len(numbering)) for value in raw]


def _reference_compaction(rows, witness_outputs, alive):
    """Survivors ranked by their first surviving witness."""
    surviving = [out for out, keep in zip(witness_outputs, alive) if keep]
    kept = list(dict.fromkeys(surviving))
    rank = {old: new for new, old in enumerate(kept)}
    return [rows[old] for old in kept], [rank[old] for old in surviving]


def test_compact_outputs_keeps_first_occurrence_numbering():
    """Filtering can reorder first occurrences (the first witness of an
    output may die while a later one survives): the relabelled outputs
    follow the first *surviving* witness on both backends, bijections
    included."""
    rng = random.Random(repro_test_seed() ^ 0xC0FFEE)
    numpy_backend = resolve_backend("numpy") if numpy_available() else None
    for trial in range(60):
        witnesses = rng.randrange(40)
        if trial % 4 == 0:
            witness_outputs = list(range(witnesses))  # a bijection
        else:
            witness_outputs = _first_occurrence_outputs(
                rng, witnesses, rng.randrange(1, 12)
            )
        rows = [("o", i) for i in range(max(witness_outputs, default=-1) + 1)]
        alive = [rng.random() < 0.6 for _ in range(witnesses)]
        if trial % 5 == 1:
            alive = [False] * witnesses
        expected = _reference_compaction(rows, witness_outputs, alive)
        python = _compact_outputs(rows, witness_outputs, bytearray(alive))
        assert (python[0], list(python[1])) == expected, (trial, witness_outputs, alive)
        if numpy_backend is not None:
            np = numpy_backend.np
            packed = _compact_outputs(
                rows,
                numpy_backend.id_column(witness_outputs),
                np.array(alive, dtype=bool),
            )
            assert (packed[0], as_id_list(packed[1])) == expected, trial


def test_compact_outputs_reorders_interleaved_survivors():
    rows = [("x",), ("y",)]
    # Output 0's first witness dies, output 1's survives: 1 is now first.
    python = _compact_outputs(rows, [0, 1, 0], bytearray([0, 1, 1]))
    assert python == ([("y",), ("x",)], [0, 1])
    if numpy_available():
        numpy_backend = resolve_backend("numpy")
        packed = _compact_outputs(
            rows,
            numpy_backend.id_column([0, 1, 0]),
            numpy_backend.np.array([False, True, True]),
        )
        assert (packed[0], as_id_list(packed[1])) == python


HARD_QUERY = parse_query("Qh(A) :- R1(A), R2(A, B), R3(B)")


def _postings_spans(tracer):
    """How many ``engine.provenance.postings`` spans the tracer recorded."""
    pending = list(tracer.roots)
    count = 0
    while pending:
        node = pending.pop()
        count += node.name == "engine.provenance.postings"
        pending.extend(node.children)
    return count


@requires_numpy
def test_steady_htap_round_builds_no_postings():
    """Once a round has built the CSR postings, later rounds carry them.

    Insert, delete and what-if migrate Q6 and Qh without re-sorting a
    witness column, and the full CQ Q6 never builds an output index.
    """
    database = generate_zipf_path(r2_tuples=3000, alpha=1.1, seed=5)
    rng = random.Random(repro_test_seed())
    a_values = sorted(row[0] for row in database.relation("R1").rows)
    b_values = sorted(row[0] for row in database.relation("R3").rows)

    def fresh_edges(count):
        stored = database.relation("R2").rows
        edges = []
        while len(edges) < count:
            edge = (rng.choice(a_values), rng.choice(b_values))
            if edge not in stored and edge not in edges:
                edges.append(edge)
        return [TupleRef("R2", edge) for edge in edges]

    def round_trip(session):
        session.apply_insertions(fresh_edges(60))
        stored = sorted(database.relation("R2").rows)
        session.apply_deletions(
            [TupleRef("R2", edge) for edge in rng.sample(stored, 30)]
        )
        probe = [TupleRef("R2", edge) for edge in rng.sample(stored, 12)]
        entry = session.what_if(probe, HARD_QUERY).single
        session.solve(Q6, 5)
        return entry

    with Session(database, backend="numpy") as session:
        session.evaluate(Q6)
        session.evaluate(HARD_QUERY)
        round_trip(session)  # warm: builds each result's R2 postings once
        assert session.evaluate(Q6)._output_index is None
        tracer = Tracer()
        with use_tracer(tracer):
            session.apply_insertions(fresh_edges(60))
            assert session.evaluate(Q6)._output_index is None
            entry = round_trip(session)
        assert _postings_spans(tracer) == 0
        assert session.evaluate(Q6)._output_index is None
    with Session(database.copy(), backend="numpy") as fresh:
        expected = fresh.what_if(entry.refs, HARD_QUERY).single
    assert (entry.witnesses_removed, entry.outputs_removed) == (
        expected.witnesses_removed, expected.outputs_removed
    )
