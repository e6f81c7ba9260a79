"""Unit tests for the synthetic workload generators."""

import hashlib

import pytest

from repro.core.selection import Selection, selected_output_size
from repro.session import Session
from repro.workloads.queries import Q1, Q2, Q6, Q7, Q8, QPATH_EXP
from repro.workloads.snap import EgoNetworkConfig, edge_count, generate_ego_edges, generate_ego_network
from repro.workloads.synthetic import generate_q7_instance, generate_q8_instance
from repro.workloads.tpch import SELECTED_PART_KEY, TpchConfig, generate_tpch
from repro.workloads.zipf import generate_zipf_path, zipf_weights


class TestTpchGenerator:
    def test_schema_and_size(self):
        database = generate_tpch(total_tuples=300, seed=1)
        assert database.relation("Supplier").attributes == ("NK", "SK")
        assert database.relation("PartSupp").attributes == ("SK", "PK")
        assert database.relation("LineItem").attributes == ("OK", "PK")
        assert 250 <= database.total_tuples() <= 350

    def test_deterministic_given_seed(self):
        first = generate_tpch(total_tuples=200, seed=9)
        second = generate_tpch(total_tuples=200, seed=9)
        for name in ("Supplier", "PartSupp", "LineItem"):
            assert first.relation(name).rows == second.relation(name).rows

    def test_different_seeds_differ(self):
        first = generate_tpch(total_tuples=200, seed=1)
        second = generate_tpch(total_tuples=200, seed=2)
        assert any(
            first.relation(name).rows != second.relation(name).rows
            for name in ("Supplier", "PartSupp", "LineItem")
        )

    def test_query_is_non_empty_and_selection_joins(self):
        database = generate_tpch(total_tuples=300, seed=1)
        assert Session(database).output_size(Q1) > 0
        selected = selected_output_size(Q1, Selection.equals({"PK": SELECTED_PART_KEY}), database)
        assert selected > 0

    def test_split_sums_to_total(self):
        config = TpchConfig(total_tuples=1000)
        assert sum(config.split()) == 1000


class TestEgoNetworkGenerator:
    def test_default_scale_matches_paper(self):
        database = generate_ego_network()
        edges = edge_count(database)
        # Ego network 414 has ~3.4k directed edges; stay in the same ballpark.
        assert 2000 <= edges <= 5000
        assert set(database.relation_names) == {"R1", "R2", "R3", "R4"}

    def test_edges_are_bidirected(self):
        config = EgoNetworkConfig(nodes=30, seed=1)
        edges = set(generate_ego_edges(config))
        assert all((b, a) in edges for (a, b) in edges)

    def test_ego_connected_to_everyone(self):
        config = EgoNetworkConfig(nodes=30, seed=1)
        edges = set(generate_ego_edges(config))
        assert all((0, node) in edges for node in range(1, 30))

    def test_deterministic(self):
        first = generate_ego_network(EgoNetworkConfig(nodes=40, seed=2))
        second = generate_ego_network(EgoNetworkConfig(nodes=40, seed=2))
        for name in first.relation_names:
            assert first.relation(name).rows == second.relation(name).rows

    def test_queries_have_results(self):
        database = generate_ego_network(EgoNetworkConfig(nodes=50, seed=414))
        aligned = database.aligned_to(Q2)
        assert Session(aligned).output_size(Q2) > 0


#: sha256 of ``repr(list(relation))`` per relation of
#: ``generate_zipf_path(r2_tuples, alpha, seed)``, rows in iteration order.
#: A relation iterates in insertion order, which fixes the interning order
#: and hence tid-ordered tie-breaking, so a generator change must keep every
#: draw and the order it inserts them in.
ZIPF_ROW_DIGESTS = {
    (300, 0.0, 13): {
        "R1": "ebfa14f042de1f30ddb8baab2da0df5e8daa9ee4c6fe97d58049bcb4900f8814",
        "R2": "612cbb995bd79dd220688a1502363562d561e2802c7bc6d110404a12aabc39e4",
        "R3": "16995057a1995a59126539db598fb149f15f9f89fd3853623ff240c985d435a0",
    },
    (2000, 1.1, 61): {
        "R1": "1abd85b62f448ad3e089813efcf033e141ecf2094d2aed0769e5450b54f3f711",
        "R2": "ac86a0c516f3dfd5ea06a27cc33b7d04fb394824c01f9eb58bd989a21fd7ff81",
        "R3": "db2643baa4d48e6d27d20649d2c3d8a6ade8e121013f7ad19a353530e10f72bf",
    },
    (5000, 0.5, 7): {
        "R1": "1d9da229f1c536ef1a97d75da72af88cdc67d9e61b6b3d8cc913924e55bd81ee",
        "R2": "470ca2ff50791e59874a49682a922b73c7c00c442efb7453cb97278e3b44ed97",
        "R3": "f16683e5ff6d96bce3b3c39196ed3416cc079d839d71919998d88a9ded4105cb",
    },
}


class TestZipfGenerator:
    @pytest.mark.parametrize(
        "point", sorted(ZIPF_ROW_DIGESTS),
        ids=["-".join(map(str, point)) for point in sorted(ZIPF_ROW_DIGESTS)],
    )
    def test_rows_pinned_in_insertion_order(self, point):
        size, alpha, seed = point
        database = generate_zipf_path(r2_tuples=size, alpha=alpha, seed=seed)
        assert {
            name: hashlib.sha256(repr(list(database.relation(name))).encode()).hexdigest()
            for name in ("R1", "R2", "R3")
        } == ZIPF_ROW_DIGESTS[point]

    def test_weights(self):
        assert zipf_weights(3, 0.0) == [1.0, 1.0, 1.0]
        weights = zipf_weights(3, 1.0)
        assert weights[0] > weights[1] > weights[2]

    def test_schema_and_distinct_values(self):
        database = generate_zipf_path(r2_tuples=200, alpha=0.0, seed=3)
        assert len(database.relation("R1")) == 40
        assert len(database.relation("R3")) == 40
        assert len(database.relation("R2")) == 200

    def test_skew_increases_max_degree(self):
        uniform = generate_zipf_path(r2_tuples=400, alpha=0.0, seed=5)
        skewed = generate_zipf_path(r2_tuples=400, alpha=1.0, seed=5)

        def max_degree(db):
            counts = {}
            for a, _b in db.relation("R2"):
                counts[a] = counts.get(a, 0) + 1
            return max(counts.values())

        assert max_degree(skewed) > max_degree(uniform)

    def test_serves_both_q6_and_qpath(self):
        database = generate_zipf_path(r2_tuples=100, alpha=0.5, seed=1)
        assert Session(database).output_size(QPATH_EXP) > 0
        assert Session(database.restricted_to(("R1", "R2"))).evaluate(Q6).output_count() > 0


class TestAblationGenerators:
    def test_q7_instance_joins(self):
        database = generate_q7_instance(tuples_per_relation=40, domain=20, seed=1)
        assert Session(database).output_size(Q7) > 0
        assert set(database.relation_names) == {"R1", "R2", "R3", "R4"}

    def test_q8_instance_shape(self):
        database = generate_q8_instance(unary_tuples=6, binary_tuples=12, seed=1)
        assert Session(database).output_size(Q8) > 0
        assert len(database.relation("R11")) == 6
        assert len(database.relation("R12")) == 12

    def test_determinism(self):
        assert generate_q8_instance(seed=4).relation("R12").rows == \
            generate_q8_instance(seed=4).relation("R12").rows
