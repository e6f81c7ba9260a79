"""Service-tier plan introspection: /v1/explain, stats opt-in, gauges, ring.

Covers the observability acceptance criteria end to end:

* ``POST /v1/explain`` returns the same schema as ``Session.explain`` with
  the identical plan fingerprint, and the fingerprint agrees across
  serial / parallel / numpy service configurations;
* ``"stats": true`` on ``/v1/solve`` attaches the operator records to that
  response (and bypasses the micro-batcher);
* ``/v1/debug/stats`` is a bounded ring of recent plan+stats records;
* the per-database operator gauges at ``/metrics`` are pruned on registry
  eviction, so their label cardinality stays bounded by the LRU capacity;
* slow-log entries carry the worst-misestimated operator.
"""

from __future__ import annotations

import json

from repro.engine.backend import numpy_available
from repro.session import Session
from repro.workloads.zipf import generate_zipf_path

from tests.service.conftest import JsonClient, database_as_wire

QUERY = "Qh(A) :- R1(A), R2(A, B), R3(B)"


def make_zipf():
    return generate_zipf_path(r2_tuples=300, alpha=0.8, seed=11)


def register(client, name, database, **extra):
    payload = {"name": name, **database_as_wire(database), **extra}
    status, body, _ = client.post("/v1/databases", payload)
    assert status == 200, body
    return body


def client_for(runner) -> JsonClient:
    return JsonClient("127.0.0.1", runner.port)


def test_explain_matches_direct_session(service_runner):
    runner = service_runner(backend="python", linger_ms=1.0)
    client = client_for(runner)
    try:
        database = make_zipf()
        register(client, "demo", database)
        status, body, _ = client.post(
            "/v1/explain", {"database": "demo", "query": QUERY}
        )
        assert status == 200, body
        assert body["database"] == "demo"
        assert body["version"] == 1
        assert body["elapsed_ms"] >= 0.0
        with Session(database, backend="python") as session:
            direct = session.explain(QUERY)
        # Same schema, byte-identical plan block, same fingerprint: the CLI
        # and the service share one explain_payload implementation.
        assert json.dumps(body["plan"], sort_keys=True) == json.dumps(
            direct["plan"], sort_keys=True
        )
        assert body["explain_version"] == direct["explain_version"]
        assert set(body["execution"]) == set(direct["execution"])
        ledger = body["execution"]["ledger"]
        assert all(row["actual"] is not None for row in ledger)
    finally:
        client.close()


def test_explain_fingerprint_identical_across_service_configs(service_runner):
    configs = [
        {"backend": "python"},
        {"workers": 2, "backend": "python"},
    ]
    if numpy_available():
        configs.append({"backend": "numpy"})
    fingerprints = set()
    plans = set()
    for config in configs:
        runner = service_runner(linger_ms=1.0, **config)
        client = client_for(runner)
        try:
            register(client, "demo", make_zipf())
            status, body, _ = client.post(
                "/v1/explain", {"database": "demo", "query": QUERY}
            )
            assert status == 200, body
            fingerprints.add(body["plan"]["fingerprint"])
            plans.add(json.dumps(body["plan"], sort_keys=True))
        finally:
            client.close()
    assert len(fingerprints) == 1
    assert len(plans) == 1


def test_explain_errors(service_runner):
    runner = service_runner(linger_ms=1.0)
    client = client_for(runner)
    try:
        assert client.post(
            "/v1/explain", {"database": "nope", "query": QUERY}
        )[0] == 404
        register(client, "demo", make_zipf())
        status, body, _ = client.post(
            "/v1/explain", {"database": "demo", "query": "Q(A) :- Missing(A)"}
        )
        assert status == 400
    finally:
        client.close()


def test_solve_stats_opt_in(service_runner):
    runner = service_runner(backend="python", linger_ms=1.0)
    client = client_for(runner)
    try:
        register(client, "demo", make_zipf())
        request = {"database": "demo", "query": QUERY, "k": 2}
        status, body, _ = client.post("/v1/solve", {**request, "stats": True})
        assert status == 200
        stats = body["stats"]
        assert any(r["op"] == "join.atom" for r in stats["operators"])
        assert "worst_misestimate" in stats
        status, plain, _ = client.post("/v1/solve", request)
        assert status == 200 and "stats" not in plain
        # Everything else about the solve is unchanged by the opt-in.
        assert body["removed"] == plain["removed"]
        # A later stats solve sees the result cache: the records honestly
        # report the hit instead of synthesizing join steps (use /v1/explain
        # for cache-bypassing actuals).
        status, cached, _ = client.post("/v1/solve", {**request, "stats": True})
        assert status == 200
        evaluate = next(
            r for r in cached["stats"]["operators"] if r["op"] == "evaluate"
        )
        assert evaluate["cache"] == "hit"
    finally:
        client.close()


def test_debug_stats_ring_is_bounded(service_runner):
    runner = service_runner(
        backend="python", linger_ms=1.0, stats_log_capacity=2
    )
    client = client_for(runner)
    try:
        register(client, "demo", make_zipf())
        for _ in range(3):
            status, _body, _ = client.post(
                "/v1/explain", {"database": "demo", "query": QUERY}
            )
            assert status == 200
        status, body, _ = client.get("/v1/debug/stats")
        assert status == 200
        assert body["capacity"] == 2
        assert body["recorded_total"] == 3
        assert len(body["entries"]) == 2
        entry = body["entries"][0]
        assert entry["route"] == "/v1/explain"
        assert entry["database"] == "demo"
        assert entry["plan"], "plan fingerprint should be captured"
        assert any(r["op"] == "join.atom" for r in entry["operators"])
    finally:
        client.close()


def test_operator_gauges_pruned_on_eviction(service_runner):
    """Satellite: /metrics label cardinality stays bounded by the LRU."""
    runner = service_runner(backend="python", max_databases=1, linger_ms=1.0)
    client = client_for(runner)
    try:
        register(client, "first", make_zipf())
        status, _body, _ = client.post(
            "/v1/explain", {"database": "first", "query": QUERY}
        )
        assert status == 200
        exposition = client.get("/metrics")[1].decode("utf-8")
        assert 'repro_service_operator_join_steps{database="first"}' in exposition
        # Registering "second" evicts "first" (capacity 1): its gauges must
        # leave the exposition even though it was never explicitly deleted.
        register(client, "second", make_zipf())
        status, _body, _ = client.post(
            "/v1/explain", {"database": "second", "query": QUERY}
        )
        assert status == 200
        exposition = client.get("/metrics")[1].decode("utf-8")
        assert 'database="first"' not in exposition
        assert 'repro_service_operator_join_steps{database="second"}' in exposition
        assert "repro_service_operator_witnesses" in exposition
        assert "repro_service_operator_max_expansion" in exposition
    finally:
        client.close()


def test_slow_log_entries_carry_worst_misestimate(service_runner):
    runner = service_runner(
        backend="python", linger_ms=1.0, trace=True, slow_ms=0.0
    )
    client = client_for(runner)
    try:
        register(client, "demo", make_zipf())
        status, _body, _ = client.post(
            "/v1/solve", {"database": "demo", "query": QUERY, "k": 2}
        )
        assert status == 200
        status, slow, _ = client.get("/v1/debug/slow")
        assert status == 200
        entry = slow["entries"][0]
        assert "worst_misestimate" in entry
        worst = entry["worst_misestimate"]
        # The zipf workload always joins, so a worst operator exists and
        # names a factor the report can sort by.
        assert worst is not None and worst["factor"] >= 1.0
    finally:
        client.close()


def test_stats_solves_bypass_the_batcher(service_runner):
    runner = service_runner(backend="python", linger_ms=25.0, max_batch=8)
    client = client_for(runner)
    try:
        register(client, "demo", make_zipf())
        status, body, _ = client.post(
            "/v1/solve",
            {"database": "demo", "query": QUERY, "k": 2, "stats": True},
        )
        assert status == 200 and "stats" in body
        snapshot = client.get("/healthz")[1]["metrics"]
        assert snapshot["singleton_dispatch_total"] >= 1
        assert snapshot["batched_requests_total"] == 0
    finally:
        client.close()
