"""Property-based tests of the evaluation engine and its substrates."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.flow import FlowNetwork
from repro.engine.provenance import ProvenanceIndex
from repro.engine.semijoin import remove_dangling_tuples
from repro.engine.setcover import PartialSetCoverInstance, greedy_partial_cover, primal_dual_partial_cover
from repro.session import Session

from tests.conftest import query_instance_pairs

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
    query, database = pair
    reduced, removed = remove_dangling_tuples(query, database)
    assert removed >= 0
    assert set(Session(reduced).evaluate(query).output_rows) == set(
        Session(database).evaluate(query).output_rows
    )


@settings(max_examples=60, **COMMON_SETTINGS)
@given(query_instance_pairs(max_relations=3, max_attributes=3, max_tuples_per_relation=3))
def test_incremental_index_matches_stateless_verification(pair):
    query, database = pair
    result = Session(database).evaluate(query)
    if result.output_count() == 0:
        return
    index = ProvenanceIndex(result)
    refs = sorted(result.participating_refs(), key=repr)[:4]
    killed_incrementally = index.remove_many(refs)
    assert killed_incrementally == result.outputs_removed_by(refs)
    index.reset()
    assert index.removed_output_count() == 0


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


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_partial_cover_algorithms_are_feasible(seed):
    rng = random.Random(seed)
    universe = list(range(rng.randint(1, 8)))
    sets = {
        f"s{i}": frozenset(rng.sample(universe, rng.randint(1, len(universe))))
        for i in range(rng.randint(1, 6))
    }
    covered = set().union(*sets.values())
    target = rng.randint(0, len(covered))
    instance = PartialSetCoverInstance(sets, target)
    for algorithm in (greedy_partial_cover, primal_dual_partial_cover):
        chosen = algorithm(instance)
        assert instance.is_feasible(chosen)
        assert len(chosen) == len(set(chosen))
