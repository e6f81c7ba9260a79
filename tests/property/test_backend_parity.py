"""Backend parity: the NumPy kernels are byte-identical to pure Python.

The acceptance contract of the array-backend subsystem: for every workload,
``Session(backend="numpy")`` and ``Session(backend="python")`` produce the
same ``QueryResult`` packing -- output row order, witness order, packed
``tid`` columns, witness->output factorization -- and the same solver
outputs (greedy/drastic picks, what-if counts), including after in-place
deletions (``apply_deletions``).

Workloads: the zipf path family, the TPC-H-like generator, and seeded
random query/instance pairs (the same generators the dichotomy property
tests use).
"""

import random

import pytest

from repro.engine.backend import numpy_available
from repro.query.parser import parse_query
from repro.session import Session
from repro.workloads.queries import Q1, Q6, QPATH_EXP
from repro.workloads.tpch import generate_tpch
from repro.workloads.zipf import generate_zipf_path

from tests.conftest import packed_columns, packed_outputs, random_instance, random_query

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed (python backend only)"
)


def assert_results_byte_identical(python_result, numpy_result):
    """Identical packing up to column representation (lists vs ndarrays)."""
    assert numpy_result.output_rows == python_result.output_rows
    assert packed_outputs(numpy_result) == packed_outputs(python_result)
    assert numpy_result.output_index == python_result.output_index
    assert numpy_result.atom_names == python_result.atom_names
    assert packed_columns(numpy_result) == packed_columns(python_result)
    assert [w.refs for w in numpy_result.witnesses] == [
        w.refs for w in python_result.witnesses
    ]


def paired_sessions(database_factory, **kwargs):
    return (
        Session(database_factory(), backend="python", **kwargs),
        Session(database_factory(), backend="numpy", **kwargs),
    )


WORKLOADS = [
    pytest.param(
        lambda: generate_zipf_path(r2_tuples=180, alpha=0.0, seed=13),
        [QPATH_EXP, Q6, parse_query("Qp(A) :- R1(A), R2(A, B), R3(B)")],
        id="zipf-uniform",
    ),
    pytest.param(
        lambda: generate_zipf_path(r2_tuples=180, alpha=1.2, seed=5),
        [QPATH_EXP, parse_query("Qb() :- R1(A), R2(A, B)")],
        id="zipf-skewed",
    ),
    pytest.param(
        lambda: generate_tpch(total_tuples=220, seed=7),
        [Q1, parse_query("QA(NK, SK, PK) :- Supplier(NK, SK), PartSupp(SK, PK)")],
        id="tpch",
    ),
]


@pytest.mark.parametrize("database_factory,queries", WORKLOADS)
def test_packing_parity(database_factory, queries):
    py_session, np_session = paired_sessions(database_factory)
    for query in queries:
        py_result = py_session.evaluate(query)
        np_result = np_session.evaluate(query)
        assert_results_byte_identical(py_result, np_result)


@pytest.mark.parametrize("database_factory,queries", WORKLOADS)
def test_packing_parity_after_apply_deletions(database_factory, queries):
    """Post-deletion state: cache migration keeps the packing identical."""
    py_session, np_session = paired_sessions(database_factory)
    for query in queries:
        py_before = py_session.evaluate(query)
        np_session.evaluate(query)
        refs = sorted(py_before.participating_refs(), key=repr)[::5]
        assert py_session.apply_deletions(refs) == np_session.apply_deletions(refs)
        py_after = py_session.evaluate(query)
        np_after = np_session.evaluate(query)
        assert_results_byte_identical(py_after, np_after)
        # The migrated (delta-filtered) result is genuinely a cache hit.
        assert py_session.stats.cache_hits > 0
        assert np_session.stats.cache_hits > 0


@pytest.mark.parametrize("database_factory,queries", WORKLOADS)
def test_what_if_counts_parity(database_factory, queries):
    py_session, np_session = paired_sessions(database_factory)
    for query in queries:
        refs = sorted(
            py_session.evaluate(query).participating_refs(), key=repr
        )[::3]
        np_session.evaluate(query)
        py_entry = py_session.what_if(refs, query).single
        np_entry = np_session.what_if(refs, query).single
        assert np_entry.outputs_removed == py_entry.outputs_removed
        assert np_entry.witnesses_removed == py_entry.witnesses_removed
        assert_results_byte_identical(py_entry.after, np_entry.after)


def test_solver_parity_on_figure_workloads():
    """Greedy and drastic produce identical deletion sets on both backends."""
    database_factory = lambda: generate_tpch(total_tuples=220, seed=7)  # noqa: E731
    py_session, np_session = paired_sessions(database_factory)
    for heuristic in ("greedy", "drastic"):
        py_solution = py_session.solve(Q1, 12, heuristic=heuristic)
        np_solution = np_session.solve(Q1, 12, heuristic=heuristic)
        assert np_solution.removed == py_solution.removed
        assert np_solution.size == py_solution.size
        assert np_solution.removed_outputs == py_solution.removed_outputs


@pytest.mark.parametrize("seed", range(10))
def test_random_cq_parity(seed):
    """Seeded-random CQs: packing + greedy parity."""
    rng = random.Random(seed)
    query = random_query(rng, max_relations=3, max_attributes=3)
    database = random_instance(query, rng, max_tuples_per_relation=7, domain_size=3)

    py_session = Session(database, backend="python")
    np_session = Session(database, backend="numpy")
    py_result = py_session.evaluate(query)
    np_result = np_session.evaluate(query)
    assert_results_byte_identical(py_result, np_result)

    total = py_result.output_count()
    if total:
        k = max(1, total // 2)
        py_solution = py_session.solve(query, k, heuristic="greedy")
        np_solution = np_session.solve(query, k, heuristic="greedy")
        assert np_solution.removed == py_solution.removed
