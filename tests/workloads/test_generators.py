"""Unit tests for the synthetic workload generators."""

import json
import os
import subprocess
import sys

import repro
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
#: ``generate_zipf_path(r2_tuples, alpha, seed)``, rows in iteration order
#: under ``PYTHONHASHSEED=0``.  Iteration order fixes the interning order and
#: hence greedy tie-breaking, so a generator change must keep every draw.
ZIPF_ROW_DIGESTS = {
    (300, 0.0, 13): {
        "R1": "8136ff4438f64b6087465069bab2cda8c1cf42abf081f23fff0da8610d95d957",
        "R2": "bc4639f854ee6cbcd323f3171a6f9425db9f038f6cdbab380c24c12fe29555e3",
        "R3": "367f7e63d38191ef115fa7d8e6fdf4bf668b98dd4ed7c28c642eb5f01803a08d",
    },
    (2000, 1.1, 61): {
        "R1": "e0bcb4f0c6306b1fd037ffb75056f0a81c2b8fcb94a4271863d928143bfeb345",
        "R2": "a4e35bedc482a85be5cbd2e18fc69e758c4187e4bc49c26c202b4b31e1c1abfe",
        "R3": "40c3359ef1ca84df0af04db99eb78aaad164ad8c2a40609f2c7b784eafb24079",
    },
    (5000, 0.5, 7): {
        "R1": "eb0c63fbf51f5e3dde29f862239b79c2763d5c77cae6beb2e2eaa0d92f916889",
        "R2": "0a3ad66a54346f76bece096ad3febd470d04161c24bdda1df2752773dd68d5cd",
        "R3": "f544bca2e1b149a024e8d17cc84c31dbc8e469bc2c9120752874b315e7fabe62",
    },
}

_ITERATION_DIGEST_SCRIPT = """
import hashlib, json, sys
from repro.workloads.zipf import generate_zipf_path
out = []
for size, alpha, seed in json.loads(sys.argv[1]):
    db = generate_zipf_path(r2_tuples=size, alpha=alpha, seed=seed)
    out.append({name: hashlib.sha256(repr(list(db.relation(name))).encode()).hexdigest()
                for name in ("R1", "R2", "R3")})
print(json.dumps(out))
"""


class TestZipfGenerator:
    def test_rows_pinned_in_iteration_order(self):
        # Set iteration order depends on the string-hash seed, so the
        # iteration-order digests are taken in a child with a fixed seed.
        points = sorted(ZIPF_ROW_DIGESTS)
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source_root, os.environ.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "-c", _ITERATION_DIGEST_SCRIPT, json.dumps(points)],
            env=env, capture_output=True, text=True, check=True,
        )
        assert json.loads(completed.stdout) == [ZIPF_ROW_DIGESTS[p] for p in points]

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
