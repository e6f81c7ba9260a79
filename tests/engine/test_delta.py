"""Unit tests for the delta-semijoin provenance filter.

``delta_filter_result`` must be observationally equivalent to a fresh
evaluation on ``database.without(removed)``: same output set, same witness
set, same provenance answers -- only the (irrelevant) iteration order may
differ, because fresh joins walk mutated hash sets.
"""

import pytest

from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.delta import delta_filter_result
from repro.engine.evaluate import evaluate_in_context
from repro.query.parser import parse_query
from repro.workloads.queries import Q1, Q6, QPATH_EXP
from repro.workloads.tpch import generate_tpch
from repro.workloads.zipf import generate_zipf_path


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
    assert filtered.provenance.indexes is base.provenance.indexes or all(
        f is b
        for f, b in zip(filtered.provenance.indexes, base.provenance.indexes)
    )
