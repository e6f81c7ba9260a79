"""Unit tests for the incremental provenance index (dense ref-ID API).

The index reads the witness incidence from the result's postings
(``QueryResult.postings_for_atom``), and verification counts dead
witnesses through the same postings; the seeded tests check both against
the row-at-a-time oracle on random CQs drawn from ``REPRO_TEST_SEED``.
"""

import random

import pytest

from repro.data.database import Database
from repro.data.relation import Relation, TupleRef
from repro.engine.backend import as_id_list, numpy_available
from repro.engine.delta import delta_counts
from repro.engine.provenance import ProvenanceIndex
from repro.obs.trace import Tracer, use_tracer
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.session import Session
from repro.workloads.zipf import generate_zipf_path

from tests.conftest import random_instance, random_query
from tests.row_oracle import evaluate_rows

BACKENDS = [
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not numpy_available(), reason="numpy unavailable"),
    ),
]


@pytest.fixture(params=BACKENDS)
def build_index(request):
    def build(query_text, schema, rows):
        query = parse_query(query_text)
        database = Database.from_dict(schema, rows)
        with Session(database, backend=request.param) as session:
            return ProvenanceIndex(session.evaluate(query))

    return build


def rid_of(index, relation, values):
    """The rid of one participating tuple, found through ``relation_rows``."""
    rids, rows = index.relation_rows(relation)
    return rids[rows.index(values)]


class TestProfitAndRemoval:
    def test_full_cq_profit_counts_witnesses(self, build_index):
        index = build_index(
            "Q(A, B) :- R1(A), R2(A, B)",
            {"R1": ["A"], "R2": ["A", "B"]},
            {"R1": [(1,), (2,)], "R2": [(1, 10), (1, 11), (2, 20)]},
        )
        assert index.profit_id(rid_of(index, "R1", (1,))) == 2
        assert index.profit_id(rid_of(index, "R1", (2,))) == 1
        assert index.profit_id(rid_of(index, "R2", (1, 10))) == 1

    def test_projected_profit_requires_all_witnesses(self, build_index):
        index = build_index(
            "Q(A) :- R1(A, B)",
            {"R1": ["A", "B"]},
            {"R1": [(1, 10), (1, 11), (2, 20)]},
        )
        # Output (1,) has two witnesses; removing one R1 tuple is not enough.
        assert index.profit_id(rid_of(index, "R1", (1, 10))) == 0
        assert index.profit_id(rid_of(index, "R1", (2, 20))) == 1

    def test_remove_and_counts(self, build_index):
        index = build_index(
            "Q(A) :- R1(A, B)",
            {"R1": ["A", "B"]},
            {"R1": [(1, 10), (1, 11), (2, 20)]},
        )
        assert index.result.output_count() == 2
        assert index.remove_id(rid_of(index, "R1", (1, 10))) == 0
        # Now (1,) has a single alive witness: the other tuple's profit is 1.
        other = rid_of(index, "R1", (1, 11))
        assert index.profit_id(other) == 1
        assert index.remove_id(other) == 1
        assert index.profit_id(other) == 0
        # (2,) is untouched by the two removals.
        assert index.profit_id(rid_of(index, "R1", (2, 20))) == 1

    def test_remove_is_idempotent(self, build_index):
        index = build_index(
            "Q(A) :- R1(A)", {"R1": ["A"]}, {"R1": [(1,), (2,)]}
        )
        rid = rid_of(index, "R1", (1,))
        assert index.remove_id(rid) == 1
        assert index.remove_id(rid) == 0
        assert index.profit_id(rid) == 0

    def test_witness_gains(self, build_index):
        index = build_index(
            "Q(A) :- R1(A, B)",
            {"R1": ["A", "B"]},
            {"R1": [(1, 10), (1, 11)]},
        )
        rid = rid_of(index, "R1", (1, 10))
        other = rid_of(index, "R1", (1, 11))
        assert list(index.gains_for([rid, other])) == [1, 1]
        index.remove_id(rid)
        # The removed tuple's witness is dead; the other's is still alive.
        assert list(index.gains_for([rid, other])) == [0, 1]

    def test_verification_ignores_the_deletion_state(self, build_index):
        index = build_index(
            "Q(A) :- R1(A)", {"R1": ["A"]}, {"R1": [(1,), (2,)]}
        )
        index.remove_id(rid_of(index, "R1", (1,)))
        # Stateless verification ignores the incremental state.
        assert index.result.outputs_removed_by([TupleRef("R1", (2,))]) == 1
        # ... and leaves it alone.
        assert index.profit_id(rid_of(index, "R1", (2,))) == 1

    def test_relation_rows(self, build_index):
        index = build_index(
            "Q(A, B) :- R1(A), R2(A, B)",
            {"R1": ["A"], "R2": ["A", "B"]},
            {"R1": [(1,)], "R2": [(1, 10), (2, 20)]},
        )
        assert index.relation_rows("R1") == (range(0, 1), [(1,)])
        # R2(2, 20) is dangling, so it does not participate.
        assert index.relation_rows("R2") == (range(1, 2), [(1, 10)])
        assert index.relation_rows("Missing") == (range(0), [])
        assert index.relation_names() == ["R1", "R2"]
        assert [index.ref_at(rid) for rid in range(index.ref_count())] == [
            TupleRef("R1", (1,)),
            TupleRef("R2", (1, 10)),
        ]

    def test_relation_rows_follow_ascending_tids(self, build_index):
        index = build_index(
            "Q(A, B) :- R1(A), R2(A, B)",
            {"R1": ["A"], "R2": ["A", "B"]},
            {
                "R1": [(1,), (2,), (3,), (4,)],
                "R2": [(3, 30), (1, 10), (4, 40), (2, 20), (1, 11), (5, 50)],
            },
        )
        result = index.result
        table = result.indexes[result.atom_position("R2")]
        column = as_id_list(result.ref_columns[result.atom_position("R2")])
        # The witnesses meet R2's tuples in another order than their tids,
        # so the fixture tells the two numberings apart.
        first_occurrence = list(dict.fromkeys(column))
        assert first_occurrence != sorted(first_occurrence)
        rids, rows = index.relation_rows("R2")
        assert rids == range(4, 9)
        assert rows == [table.rows[tid] for tid in sorted(first_occurrence)]
        assert (5, 50) not in rows  # dangling
        assert [index.ref_at(rid) for rid in rids] == [
            TupleRef("R2", row) for row in rows
        ]

    def test_vacuum_tuple_takes_the_last_rid(self, build_index):
        index = build_index(
            "Q(A) :- R1(A), V()",
            {"R1": ["A"], "V": []},
            {"R1": [(1,), (2,)], "V": [()]},
        )
        assert index.relation_names() == ["R1", "V"]
        assert index.relation_rows("V") == (range(2, 3), [()])
        assert index.ref_at(2) == TupleRef("V", ())
        assert index.profit_id(2) == 2
        assert index.remove_id(2) == 2


def four_way_counts(query, database, result, rids, extra_refs=()):
    """The outputs removed by deleting ``rids`` (plus ``extra_refs``), four ways.

    The incremental kill count of a fresh index, stateless verification,
    the what-if count and the row-at-a-time oracle.
    """
    index = ProvenanceIndex(result)
    refs = [index.ref_at(rid) for rid in rids] + list(extra_refs)
    killed = sum(index.remove_id(rid) for rid in rids)
    return (
        killed,
        result.outputs_removed_by(refs),
        delta_counts(result, refs)[1],
        evaluate_rows(query, database).outputs_removed_by(refs),
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_incidence_matches_the_row_oracle_on_random_cqs(backend, test_seed):
    """Index, verification and what-if agree with the oracle on random
    CQs (projections, boolean heads, 0-ary atoms) and deletion sets."""
    rng = random.Random(test_seed)
    checked = 0
    for _ in range(60):
        query = random_query(rng, max_relations=4, max_attributes=4)
        if rng.random() < 0.3:
            query = ConjunctiveQuery(
                query.head, query.atoms + parse_query("Qv() :- V()").atoms, name="Qv"
            )
        database = random_instance(query, rng, max_tuples_per_relation=6)
        with Session(database, backend=backend) as session:
            result = session.evaluate(query)
            if not result.output_count():
                continue
            refs_total = ProvenanceIndex(result).ref_count()
            dangling = [
                TupleRef(relation.name, row)
                for relation in database
                for row in relation
                if TupleRef(relation.name, row) not in result.participating_refs()
            ]
            for _ in range(4):
                rids = rng.sample(range(refs_total), rng.randint(1, refs_total))
                extra = rng.sample(dangling, min(len(dangling), rng.randint(0, 2)))
                counts = four_way_counts(query, database, result, rids, extra)
                assert len(set(counts)) == 1, (str(query), rids, counts)
                checked += 1
    assert checked >= 40


@pytest.mark.parametrize("backend", BACKENDS)
def test_postings_are_built_once_per_result_and_atom(backend):
    """A greedy solve, its verification and a what-if share one postings
    build per atom, and the index never writes them."""
    query = parse_query("Qh(A) :- R1(A), R2(A, B), R3(B)")
    database = generate_zipf_path(r2_tuples=200, alpha=1.1, seed=5)
    tracer = Tracer()
    with Session(database, backend=backend) as session, use_tracer(tracer):
        solution = session.solve(query, 20, heuristic="greedy")
        result = session.evaluate(query)
        assert result.outputs_removed_by(solution.removed) == solution.removed_outputs
        entry = session.what_if(solution.removed, query).single
        assert entry.outputs_removed == solution.removed_outputs
    built = []
    pending = list(tracer.roots)
    while pending:
        node = pending.pop()
        if node.name == "engine.provenance.postings":
            built.append(node.attrs["relation"])
        pending.extend(node.children)
    assert sorted(built) == ["R1", "R2", "R3"]

    before = [snapshot(result.postings_for_atom(a)) for a in range(result.atom_count())]
    index = ProvenanceIndex(result)
    killed = sum(index.remove_id(rid) for rid in range(index.ref_count()))
    assert killed == result.output_count()
    assert [snapshot(result.postings_for_atom(a)) for a in range(result.atom_count())] == before


def snapshot(postings):
    """A plain copy of a postings index: ``{tid: [positions]}``."""
    return {tid: as_id_list(positions) for tid, positions in postings.items()}


def scratch_profits(index, removed):
    """Every rid's profit recounted from nothing: per (output, rid) alive
    witness counts against per-output alive counts, one ``bincount``."""
    np = pytest.importorskip("numpy")
    result = index.result
    rows = [index.witness_rids(wid) for wid in range(result.witness_count())]
    outputs = np.asarray(as_id_list(result.witness_outputs), dtype=np.int64)
    alive = np.asarray([not removed.intersection(row) for row in rows], dtype=bool)
    per_output = np.bincount(outputs[alive], minlength=result.output_count())
    pairs = {}
    for wid in np.flatnonzero(alive).tolist():
        for rid in rows[wid]:
            key = (int(outputs[wid]), rid)
            pairs[key] = pairs.get(key, 0) + 1
    killers = [rid for (out, rid), count in pairs.items() if count == per_output[out]]
    return np.bincount(
        np.asarray(killers, dtype=np.int64), minlength=index.ref_count()
    ).tolist(), int(np.count_nonzero(per_output))


MAINTAINED_CASES = {
    "projection": ("Qh(A) :- R1(A), R2(A, B), R3(B)", 120, 1.1),
    "projection-flat": ("Q(B) :- R1(A), R2(A, B)", 80, 0.0),
    "boolean": ("Q() :- R1(A), R2(A, B)", 40, 0.8),
    "vacuum": ("Q(A) :- R1(A), R2(A, B), V()", 60, 1.1),
}


@pytest.mark.skipif(not numpy_available(), reason="numpy unavailable")
@pytest.mark.parametrize("case", sorted(MAINTAINED_CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_maintained_profits_match_a_recount_after_every_removal(case, seed):
    """The NumPy index keeps every rid's profit current through
    ``remove_id``: built with the index, and after each removal of a seeded
    sequence (which revisits removed rids and ends with every output dead),
    ``profits_for`` over all rids equals a from-scratch recount, and each
    kill count matches it."""
    text, size, alpha = MAINTAINED_CASES[case]
    database = generate_zipf_path(r2_tuples=size, alpha=alpha, seed=seed)
    if case == "vacuum":
        database.add_relation(Relation("V", (), [()]))
    with Session(database, backend="numpy") as session:
        index = ProvenanceIndex(session.evaluate(parse_query(text)))
    assert index.vectorized
    rng = random.Random(seed)
    rids = list(range(index.ref_count()))
    sequence = rng.sample(rids, len(rids))
    sequence[5:5] = rng.sample(sequence[:5], 3)  # re-removals: no-ops
    removed = set()
    profits, outputs_alive = scratch_profits(index, removed)
    assert index.profits_for(rids).tolist() == profits
    for rid in sequence:
        removed.add(rid)
        killed = index.remove_id(rid)
        profits, now_alive = scratch_profits(index, removed)
        assert index.profits_for(rids).tolist() == profits
        assert killed == outputs_alive - now_alive
        outputs_alive = now_alive
    assert outputs_alive == 0
