"""Parity tests: the columnar witness engine vs the row-at-a-time reference.

The columnar engine must be invisible to every consumer: identical answers,
identical witness sets, and ADP solutions that hold up when checked on the
reference.  ``evaluate_rows`` (``tests/row_oracle.py``) is the original row
engine kept verbatim; every columnar evaluation here runs through
``Session(db, backend=b)`` on both array backends.
"""

from itertools import combinations

import pytest

from repro.core.bruteforce import bruteforce_solve
from repro.core.structures import endogenous_relations
from repro.data.database import Database
from repro.data.relation import TupleRef
from repro.engine.backend import numpy_available
from repro.experiments.harness import target_from_ratio
from repro.query.parser import parse_query
from repro.session import Session
from repro.workloads.queries import Q1, Q6, Q7, Q8, QPATH_EXP
from repro.workloads.synthetic import generate_q7_instance, generate_q8_instance
from repro.workloads.tpch import generate_tpch
from repro.workloads.zipf import generate_zipf_path
from tests.conftest import packed_outputs
from tests.row_oracle import evaluate_rows

BACKENDS = ("python", "numpy") if numpy_available() else ("python",)


def _instances():
    return [
        ("tpch", Q1, generate_tpch(total_tuples=120, seed=7)),
        ("zipf", QPATH_EXP, generate_zipf_path(r2_tuples=150, alpha=0.5, seed=13)),
        ("zipf-easy", Q6, generate_zipf_path(r2_tuples=150, alpha=1.0, seed=13)),
        ("synthetic-q7", Q7, generate_q7_instance(tuples_per_relation=40, seed=28)),
        ("synthetic-q8", Q8, generate_q8_instance(unary_tuples=8, binary_tuples=16, seed=29)),
    ]


INSTANCES = _instances()
IDS = [name for name, _, _ in INSTANCES]


def _evaluate(query, database, backend):
    with Session(database, backend=backend) as session:
        return session.evaluate(query)


# --------------------------------------------------------------------------- #
# Evaluation parity
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name,query,database", INSTANCES, ids=IDS)
def test_evaluation_parity(name, query, database):
    rows = evaluate_rows(query, database)
    for backend in BACKENDS:
        columnar = _evaluate(query, database, backend)
        assert columnar.output_rows == rows.output_rows
        assert packed_outputs(columnar) == rows.witness_outputs
        assert columnar.output_index == rows.output_index
        # The lazy witness view materializes the same full-join rows, in the
        # same order, with the same ref order inside each witness.
        assert [w.refs for w in columnar.witnesses] == [w.refs for w in rows.witnesses]
        assert columnar.participating_refs() == rows.participating_refs()


@pytest.mark.parametrize("name,query,database", INSTANCES, ids=IDS)
def test_outputs_removed_by_parity(name, query, database):
    rows = evaluate_rows(query, database)
    refs = sorted(rows.participating_refs(), key=repr)
    probes = [refs[:1], refs[:3], refs[::4], refs]
    for backend in BACKENDS:
        columnar = _evaluate(query, database, backend)
        for removed in probes:
            assert columnar.outputs_removed_by(removed) == rows.outputs_removed_by(removed)


def test_vacuum_relation_parity():
    query = parse_query("Q(A) :- R1(A), R0()")
    present = Database.from_dict(
        {"R1": ["A"], "R0": []}, {"R1": [(1,), (2,)], "R0": [()]}
    )
    absent = Database.from_dict({"R1": ["A"], "R0": []}, {"R1": [(1,)], "R0": []})
    vacuum = TupleRef("R0", ())
    for backend in BACKENDS:
        for database in (present, absent):
            columnar = _evaluate(query, database, backend)
            rows = evaluate_rows(query, database)
            assert columnar.output_rows == rows.output_rows
            assert packed_outputs(columnar) == rows.witness_outputs
            assert [w.refs for w in columnar.witnesses] == [w.refs for w in rows.witnesses]
            assert columnar.participating_refs() == rows.participating_refs()
        # Removing the vacuum tuple kills every output on both engines.
        assert (
            _evaluate(query, present, backend).outputs_removed_by([vacuum])
            == evaluate_rows(query, present).outputs_removed_by([vacuum])
            == 2
        )


# --------------------------------------------------------------------------- #
# ADP solutions: identical across backends, verified on the row reference
# --------------------------------------------------------------------------- #
def _solve_on_backends(query, database, k, **solver_kwargs):
    solutions = []
    for backend in BACKENDS:
        with Session(database, backend=backend) as session:
            solutions.append(session.solve(query, k, **solver_kwargs))
    first, *others = solutions
    for other in others:
        assert other.objective == first.objective
        assert other.removed == first.removed
        assert other.removed_outputs == first.removed_outputs
        assert other.optimal == first.optimal
        assert other.method == first.method
    return first


@pytest.mark.parametrize("name,query,database", INSTANCES, ids=IDS)
@pytest.mark.parametrize("heuristic", ["greedy", "drastic"])
def test_adp_solution_parity(name, query, database, heuristic):
    if heuristic == "drastic" and not query.is_full:
        pytest.skip("drastic only applies to full CQs")
    k = target_from_ratio(query, database, 0.3)
    solution = _solve_on_backends(query, database, k, heuristic=heuristic)
    # The solver's verification count is what the reference engine reports.
    rows = evaluate_rows(query, database)
    assert rows.outputs_removed_by(solution.removed) == solution.removed_outputs >= k


def test_bruteforce_parity_small_tpch():
    database = generate_tpch(total_tuples=60, seed=7)
    k = target_from_ratio(Q1, database, 0.1)
    with Session(database) as session, session.activate():
        columnar = bruteforce_solve(Q1, database, k, max_candidates=2000)
    # Re-run the enumeration on the row reference over the same candidate
    # pool: no smaller deletion set reaches k there, and the chosen one does.
    rows = evaluate_rows(Q1, database)
    endogenous = set(endogenous_relations(Q1))
    pool = sorted(
        (ref for ref in rows.participating_refs() if ref.relation in endogenous),
        key=repr,
    )
    assert rows.outputs_removed_by(columnar.removed) == columnar.removed_outputs >= k
    for size in range(len(columnar.removed)):
        assert all(
            rows.outputs_removed_by(subset) < k for subset in combinations(pool, size)
        )


def test_boolean_min_cut_parity():
    query = parse_query("Q() :- R1(A), R2(A, B), R3(B)")
    database = generate_zipf_path(r2_tuples=80, alpha=0.25, seed=3)
    solution = _solve_on_backends(query, database, 1)
    assert solution.optimal
    assert evaluate_rows(query, database).outputs_removed_by(solution.removed) == 1


# --------------------------------------------------------------------------- #
# Evaluation cache semantics
# --------------------------------------------------------------------------- #
def test_cache_hits_on_repeat_and_shares_result():
    session = Session(generate_tpch(total_tuples=60, seed=7))
    first = session.evaluate(Q1)
    stats = session.stats
    assert (stats.cache_hits, stats.cache_misses) == (0, 1)
    second = session.evaluate(Q1)
    assert session.stats.cache_hits == 1
    assert second is first


def test_cache_invalidates_on_mutation():
    database = Database.from_dict(
        {"R1": ["A"], "R2": ["A", "B"]},
        {"R1": [(1,), (2,)], "R2": [(1, 10), (2, 20)]},
    )
    session = Session(database)
    query = parse_query("Q(A, B) :- R1(A), R2(A, B)")
    before = session.evaluate(query)
    assert before.output_count() == 2
    database.relation("R2").insert((2, 21))
    after = session.evaluate(query)
    assert after is not before
    assert after.output_count() == 3
    database.relation("R2").remove((2, 21))
    again = session.evaluate(query)
    assert again.output_count() == 2


def test_cache_ignores_display_name_but_not_head_order():
    session = Session(Database.from_dict({"R1": ["A", "B"]}, {"R1": [(1, 10), (2, 20)]}))
    q_ab = parse_query("Q(A, B) :- R1(A, B)")
    q_renamed = parse_query("Other(A, B) :- R1(A, B)")
    q_ba = parse_query("Q(B, A) :- R1(A, B)")
    first = session.evaluate(q_ab)
    assert session.evaluate(q_renamed) is first  # same canonical form
    flipped = session.evaluate(q_ba)
    assert flipped is not first
    assert set(flipped.output_rows) == {(10, 1), (20, 2)}
    assert session.stats.joins == 2


def test_max_witnesses_bypasses_cache():
    database = Database.from_dict(
        {"R1": ["A"], "R2": ["B"]},
        {"R1": [(i,) for i in range(20)], "R2": [(i,) for i in range(20)]},
    )
    session = Session(database)
    query = parse_query("Q(A, B) :- R1(A), R2(B)")
    session.evaluate(query)  # caches the unbounded result
    with pytest.raises(RuntimeError):
        session.evaluate(query, max_witnesses=100)
