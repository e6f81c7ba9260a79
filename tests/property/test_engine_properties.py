"""Property-based tests of the evaluation engine and its substrates."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.relation import TupleRef
from repro.engine.backend import numpy_available
from repro.engine.delta import delta_counts
from repro.engine.flow import FlowNetwork
from repro.engine.provenance import ProvenanceIndex
from repro.session import Session

from tests.conftest import query_instance_pairs
from tests.row_oracle import evaluate_rows

BACKENDS = [
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not numpy_available(), reason="numpy unavailable"),
    ),
]

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(max_examples=80, **COMMON_SETTINGS)
@given(query_instance_pairs(max_relations=3, max_attributes=3, max_tuples_per_relation=4))
def test_witnesses_project_onto_their_output(pair):
    query, database = pair
    result = Session(database).evaluate(query)
    assert len(result.witnesses) == len(result.witness_outputs)
    for witness, out in zip(result.witnesses, result.witness_outputs):
        # Re-derive the output row from the witness and compare.
        values = {}
        for ref in witness.refs:
            relation = database.relation(ref.relation)
            for attribute, value in zip(relation.attributes, ref.values):
                assert values.get(attribute, value) == value
                values[attribute] = value
        assert tuple(values[a] for a in query.head) == result.output_rows[out]


@settings(max_examples=60, **COMMON_SETTINGS)
@given(query_instance_pairs(max_relations=3, max_attributes=3, max_tuples_per_relation=4))
def test_dangling_removal_preserves_output(pair):
    """Deleting every non-participating (dangling) tuple keeps ``Q(D)``."""
    query, database = pair
    result = Session(database).evaluate(query)
    all_refs = {
        TupleRef(name, row)
        for name in query.relation_names
        for row in database.relation(name)
    }
    dangling = all_refs - result.participating_refs()
    assert set(Session(database.without(dangling)).evaluate(query).output_rows) == set(
        result.output_rows
    )


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, **COMMON_SETTINGS)
@given(pair=query_instance_pairs(max_relations=3, max_attributes=3, max_tuples_per_relation=3))
def test_incremental_index_matches_stateless_verification(backend, pair):
    """The index's kill count, verification, the what-if count and the
    row-at-a-time oracle agree on the first four tuples in ``repr`` order."""
    query, database = pair
    result = Session(database, backend=backend).evaluate(query)
    if result.output_count() == 0:
        return
    index = ProvenanceIndex(result)
    rids = sorted(range(index.ref_count()), key=lambda rid: repr(index.ref_at(rid)))[:4]
    refs = [index.ref_at(rid) for rid in rids]
    killed_incrementally = sum(index.remove_id(rid) for rid in rids)
    assert killed_incrementally == result.outputs_removed_by(refs)
    assert killed_incrementally == delta_counts(result, refs)[1]
    assert killed_incrementally == evaluate_rows(query, database).outputs_removed_by(refs)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_max_flow_equals_min_cut_on_random_networks(seed):
    rng = random.Random(seed)
    network = FlowNetwork()
    nodes = ["s", "t"] + [f"n{i}" for i in range(rng.randint(1, 4))]
    for _ in range(rng.randint(2, 10)):
        u, v = rng.sample(nodes, 2)
        network.add_edge(u, v, rng.randint(1, 4))
    if not (network.has_node("s") and network.has_node("t")):
        return
    flow = network.max_flow("s", "t")
    cut = network.min_cut_edges("s")
    assert abs(sum(capacity for (_, _, capacity, _) in cut) - flow) < 1e-9
