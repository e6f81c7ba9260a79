"""End-to-end HTTP tests: parity with direct sessions, errors, backpressure.

The headline acceptance test: responses from the HTTP API are
**byte-identical** (canonical JSON) to direct :class:`repro.session.Session`
calls on an identical database/backend -- including after
``apply_deletions`` version bumps.
"""

import threading
import time
from contextlib import contextmanager

from repro.data.database import Database
from repro.service.serialize import (
    dumps_canonical,
    refs_to_json,
    solution_payload,
    what_if_payload,
)
from repro.session import Session
from repro.workloads.zipf import generate_zipf_path

from tests.service.conftest import JsonClient, database_as_wire

QUERY = "Qh(A) :- R1(A), R2(A, B), R3(B)"
EASY_QUERY = "Q6(A, B) :- R1(A), R2(A, B)"

#: Service-envelope fields a direct Session call cannot produce.
ENVELOPE_KEYS = ("database", "version", "batched", "elapsed_ms", "trace_id")


def make_zipf():
    return generate_zipf_path(r2_tuples=300, alpha=0.8, seed=11)


def register(client, name, database, **extra):
    payload = {"name": name, **database_as_wire(database), **extra}
    status, body, _ = client.post("/v1/databases", payload)
    assert status == 200, body
    return body


def strip_envelope(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in ENVELOPE_KEYS}


@contextmanager
def held_database(runner, name):
    """Hold a database's write lock: solves on it park before any work."""
    with runner.service.registry.get(name).lock.write():
        yield


class BackgroundSolve:
    """POST one ``/v1/solve`` from a background thread on its own client."""

    def __init__(self, runner, payload):
        self.status = self.body = None
        self.thread = threading.Thread(target=self._run, args=(runner, payload))
        self.thread.start()

    def _run(self, runner, payload):
        worker = JsonClient("127.0.0.1", runner.port)
        try:
            self.status, self.body, _ = worker.post("/v1/solve", payload)
        finally:
            worker.close()

    def join(self):
        self.thread.join(timeout=60)
        return self.status


def wait_for_pending(client, count, timeout_s=10.0):
    """Poll ``/healthz`` until ``count`` solves hold admission slots."""
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        if client.get("/healthz")[1]["pending_requests"] >= count:
            return
        time.sleep(0.005)
    raise AssertionError(f"{count} solves never became pending")


def test_solve_and_what_if_parity_including_version_bumps(service_runner):
    runner = service_runner(backend="python")
    client = JsonClient("127.0.0.1", runner.port)
    try:
        register(client, "zipf", make_zipf())
        # The mirror session runs on an identically built database.
        with Session(make_zipf(), backend="python") as mirror:
            for query, k in ((QUERY, 3), (EASY_QUERY, 5), (QUERY, 7)):
                status, body, _ = client.post(
                    "/v1/solve", {"database": "zipf", "query": query, "k": k}
                )
                assert status == 200, body
                assert body["version"] == 1
                assert isinstance(body["elapsed_ms"], float)
                prepared = mirror.prepare(query)
                expected = solution_payload(
                    mirror, prepared, mirror.output_size(prepared),
                    mirror.solve(prepared, k),
                )
                assert dumps_canonical(strip_envelope(body)) == dumps_canonical(
                    expected
                )

            # What-if parity on the deletion set the solver itself proposes.
            removed = mirror.solve(QUERY, 4).removed
            status, body, _ = client.post(
                "/v1/what_if",
                {
                    "database": "zipf",
                    "query": QUERY,
                    "refs": refs_to_json(removed),
                    "include_after": True,
                },
            )
            assert status == 200, body
            entry = mirror.what_if(removed, QUERY).single
            expected = what_if_payload(entry, include_after=True)
            assert dumps_canonical(strip_envelope(body)) == dumps_canonical(expected)

            # Apply the deletions on both sides: the service bumps its
            # version and post-deletion solves stay byte-identical.
            status, body, _ = client.post(
                "/v1/apply_deletions",
                {"database": "zipf", "refs": refs_to_json(removed)},
            )
            assert status == 200, body
            assert body["removed"] == len(removed)
            assert body["version"] == 2
            mirror.apply_deletions(removed)

            status, body, _ = client.post(
                "/v1/solve", {"database": "zipf", "query": QUERY, "k": 2}
            )
            assert status == 200, body
            assert body["version"] == 2
            prepared = mirror.prepare(QUERY)
            expected = solution_payload(
                mirror, prepared, mirror.output_size(prepared),
                mirror.solve(prepared, 2),
            )
            assert dumps_canonical(strip_envelope(body)) == dumps_canonical(expected)
    finally:
        client.close()


def _fresh_r2_edges(database, count):
    """R2 edges absent from ``database``, recombined from stored endpoints."""
    from repro.data.relation import TupleRef

    rows = sorted(database.relation("R2").rows)
    stored = set(rows)
    edges = []
    i = 0
    while len(edges) < count and i < 10_000:
        edge = (rows[i % len(rows)][0], rows[(i * 7 + 3) % len(rows)][1])
        i += 1
        if edge in stored or edge in edges:
            continue
        edges.append(edge)
    return [TupleRef("R2", edge) for edge in edges]


def test_apply_insertions_round_trip(service_runner):
    """Insertions over HTTP: version bumps, no-op batches, solver parity,
    and in-flight solves landing consistently on exactly one version."""
    runner = service_runner(backend="python")
    client = JsonClient("127.0.0.1", runner.port)
    try:
        register(client, "zipf", make_zipf())
        inserted = _fresh_r2_edges(make_zipf(), 6)
        with Session(make_zipf(), backend="python") as mirror:
            status, body, _ = client.post(
                "/v1/solve", {"database": "zipf", "query": QUERY, "k": 3}
            )
            assert status == 200 and body["version"] == 1

            status, body, _ = client.post(
                "/v1/apply_insertions",
                {"database": "zipf", "refs": refs_to_json(inserted)},
            )
            assert status == 200, body
            assert body["added"] == len(inserted)
            assert body["version"] == 2
            assert isinstance(body["elapsed_ms"], float)
            assert mirror.apply_insertions(inserted) == len(inserted)

            # Post-insertion solves are byte-identical to the mirror.
            status, body, _ = client.post(
                "/v1/solve", {"database": "zipf", "query": QUERY, "k": 3}
            )
            assert status == 200, body
            assert body["version"] == 2
            prepared = mirror.prepare(QUERY)
            expected = solution_payload(
                mirror, prepared, mirror.output_size(prepared),
                mirror.solve(prepared, 3),
            )
            assert dumps_canonical(strip_envelope(body)) == dumps_canonical(expected)

            # Re-inserting the same batch is a no-op: the version (and every
            # cache keyed on it) must stay put.
            status, body, _ = client.post(
                "/v1/apply_insertions",
                {"database": "zipf", "refs": refs_to_json(inserted)},
            )
            assert status == 200, body
            assert body["added"] == 0
            assert body["version"] == 2
            # Unknown relations are ignored, not errors (mirror semantics).
            status, body, _ = client.post(
                "/v1/apply_insertions",
                {"database": "zipf", "refs": [["R_unknown", ["x"]]]},
            )
            assert status == 200 and body["added"] == 0 and body["version"] == 2

            status, health, _ = client.get("/healthz")
            assert health["metrics"]["insertions_applied_total"] == len(inserted)

            # An in-flight solve racing a mutation must land on exactly one
            # version and match that version's serial state byte-for-byte.
            second = _fresh_r2_edges(mirror.database, 4)
            with Session(make_zipf(), backend="python") as mirror_v3:
                mirror_v3.apply_insertions(inserted)
                mirror_v3.apply_insertions(second)
                expected_by_version = {}
                for version, m in ((2, mirror), (3, mirror_v3)):
                    p = m.prepare(QUERY)
                    expected_by_version[version] = dumps_canonical(
                        solution_payload(
                            m, p, m.output_size(p), m.solve(p, 2)
                        )
                    )
                outcome = {}

                def solve_in_flight():
                    worker = JsonClient("127.0.0.1", runner.port)
                    try:
                        outcome["response"] = worker.post(
                            "/v1/solve",
                            {"database": "zipf", "query": QUERY, "k": 2,
                             "batch": False},
                        )
                    finally:
                        worker.close()

                thread = threading.Thread(target=solve_in_flight)
                thread.start()
                status, body, _ = client.post(
                    "/v1/apply_insertions",
                    {"database": "zipf", "refs": refs_to_json(second)},
                )
                assert status == 200, body
                assert body["version"] == 3
                thread.join(timeout=60)
                status, solve_body, _ = outcome["response"]
                assert status == 200, solve_body
                assert solve_body["version"] in (2, 3)
                assert dumps_canonical(strip_envelope(solve_body)) == (
                    expected_by_version[solve_body["version"]]
                )

        # 404 for unknown databases, before any work queues.
        assert client.post(
            "/v1/apply_insertions", {"database": "nope", "refs": []}
        )[0] == 404
    finally:
        client.close()


def test_batched_and_unbatched_solves_are_identical(service_runner):
    """Coalesced dispatch must not change any solve answer."""
    runner = service_runner(backend="python", max_batch=8)
    client = JsonClient("127.0.0.1", runner.port)
    try:
        register(client, "zipf", make_zipf())
        targets = list(range(1, 7))
        baseline = {}
        for k in targets:
            status, body, _ = client.post(
                "/v1/solve",
                {"database": "zipf", "query": QUERY, "k": k, "batch": False},
            )
            assert status == 200, body
            assert body["batched"] is False
            baseline[k] = strip_envelope(body)

        # The first solve dispatches at once and parks on the held
        # database lock; the other five queue behind it as one batch.
        with held_database(runner, "zipf"):
            solvers = {
                k: BackgroundSolve(
                    runner, {"database": "zipf", "query": QUERY, "k": k}
                )
                for k in targets
            }
            wait_for_pending(client, len(targets))
        for k, solver in solvers.items():
            assert solver.join() == 200, solver.body
            assert strip_envelope(solver.body) == baseline[k]
        assert sum(bool(s.body["batched"]) for s in solvers.values()) == 5
        status, health, _ = client.get("/healthz")
        assert health["metrics"]["batches_total"] == 1
        assert health["metrics"]["batched_requests_total"] == 5
    finally:
        client.close()


def test_served_solve_prepares_once_per_request(service_runner, monkeypatch):
    """The batch body prepares each request once; the size check and the
    solve reuse that prepared query instead of re-entering prepare."""
    calls = []
    original = Session.prepare

    def counting_prepare(self, query):
        calls.append(query)
        return original(self, query)

    monkeypatch.setattr(Session, "prepare", counting_prepare)
    runner = service_runner(backend="python")
    client = JsonClient("127.0.0.1", runner.port)
    try:
        register(client, "zipf", make_zipf())
        del calls[:]
        for k in (2, 3, 4):
            status, body, _ = client.post(
                "/v1/solve",
                {"database": "zipf", "query": QUERY, "k": k, "batch": False},
            )
            assert status == 200, body
        assert calls == [QUERY] * 3
    finally:
        client.close()


def test_error_statuses(service_runner):
    runner = service_runner()
    client = JsonClient("127.0.0.1", runner.port)
    try:
        database = Database.from_dict(
            {"R1": ["A"], "R2": ["A", "B"]}, {"R1": [(1,)], "R2": [(1, 2)]}
        )
        register(client, "demo", database)

        # 404: unknown database / unknown route; 405: wrong method.
        assert client.post("/v1/solve", {"database": "nope", "query": EASY_QUERY,
                                         "k": 1})[0] == 404
        assert client.get("/v1/nothing")[0] == 404
        assert client.get("/v1/solve")[0] == 405

        # 409: duplicate name without replace -- but only the name conflict;
        # malformed registration payloads are 400.
        status, body, _ = client.post(
            "/v1/databases", {"name": "demo", "schema": {"R1": ["A"]}}
        )
        assert status == 409
        status, body, _ = client.post(
            "/v1/databases",
            {"name": "arity", "schema": {"R1": ["A"]}, "rows": {"R1": [[1, 2]]}},
        )
        assert status == 400
        assert client.post(
            "/v1/solve", {"database": "demo", "query": EASY_QUERY, "ratio": True}
        )[0] == 400

        # 400 family: malformed bodies and infeasible targets.
        assert client.post("/v1/solve", {"database": "demo"})[0] == 400
        assert client.post("/v1/solve", {"database": "demo", "query": EASY_QUERY}
                           )[0] == 400
        assert client.post(
            "/v1/solve",
            {"database": "demo", "query": EASY_QUERY, "k": 1, "ratio": 0.5},
        )[0] == 400
        assert client.post(
            "/v1/solve", {"database": "demo", "query": EASY_QUERY, "k": 99}
        )[0] == 400
        assert client.post(
            "/v1/solve",
            {"database": "demo", "query": "Qx(Z) :- Unknown(Z)", "k": 1},
        )[0] == 400
        assert client.post(
            "/v1/what_if",
            {"database": "demo", "query": EASY_QUERY, "refs": "nope"},
        )[0] == 400

        # Empty result is a success, not an error.
        status, body, _ = client.post(
            "/v1/solve",
            {"database": "demo", "query": "Qe(A) :- R1(A), R2(A, B)", "ratio": 0.5},
        )
        assert status == 200
        # Qe has answers; craft a genuinely empty one via deletion instead.
        client.post("/v1/apply_deletions",
                    {"database": "demo", "refs": [["R1", [1]]]})
        status, body, _ = client.post(
            "/v1/solve", {"database": "demo", "query": EASY_QUERY, "k": 1}
        )
        assert status == 200
        assert body["method"] == "empty-result"
        assert body["objective"] == 0
    finally:
        client.close()


def test_overload_returns_429_with_retry_after(service_runner):
    runner = service_runner(
        backend="python", max_pending=1, retry_after_s=0.25, max_batch=4,
    )
    client = JsonClient("127.0.0.1", runner.port)
    try:
        register(client, "zipf", make_zipf())
        # The occupant's solve holds the only admission slot, parked on the
        # database lock this test holds; the probe must be shed at once.
        with held_database(runner, "zipf"):
            occupant = BackgroundSolve(
                runner, {"database": "zipf", "query": QUERY, "k": 1}
            )
            wait_for_pending(client, 1)
            status, body, headers = client.post(
                "/v1/solve", {"database": "zipf", "query": QUERY, "k": 1}
            )
            assert status == 429
            assert headers.get("retry-after") == "0.25"
            assert "retry_after_s" in body
        assert occupant.join() == 200
        status, health, _ = client.get("/healthz")
        assert health["metrics"]["rejected_total"] >= 1
    finally:
        client.close()


def test_expired_deadline_is_504(service_runner):
    runner = service_runner(backend="python", max_batch=8)
    client = JsonClient("127.0.0.1", runner.port)
    try:
        register(client, "zipf", make_zipf())
        session = runner.service.registry.get("zipf").session
        before = session.stats
        # The request waits on the held database lock past its 50 ms
        # budget: it must be dropped before any solver work happens.
        with held_database(runner, "zipf"):
            waiter = BackgroundSolve(
                runner,
                {"database": "zipf", "query": QUERY, "k": 1, "deadline_ms": 50},
            )
            wait_for_pending(client, 1)
            time.sleep(0.1)
        assert waiter.join() == 504
        assert "deadline" in waiter.body["error"]
        after = session.stats
        assert (after.prepares, after.solves, after.joins) == (
            before.prepares, before.solves, before.joins,
        )
        status, health, _ = client.get("/healthz")
        assert health["metrics"]["deadline_missed_total"] >= 1
    finally:
        client.close()


def test_a_query_never_queues_behind_another_querys_dispatch(service_runner):
    """Batches key on the query: a solve of ``EASY_QUERY`` completes while
    a dispatch of ``QUERY`` on the same database is held in flight."""
    runner = service_runner(backend="python")
    service = runner.service
    entered, release = threading.Event(), threading.Event()
    original = service._solve_batch_job

    def gated_job(entry, items, trace_id=None):
        if items[0].query == QUERY:
            entered.set()
            release.wait(30)
        return original(entry, items, trace_id)

    service._solve_batch_job = gated_job
    client = JsonClient("127.0.0.1", runner.port, timeout=10.0)
    try:
        register(client, "zipf", make_zipf())
        held = BackgroundSolve(
            runner, {"database": "zipf", "query": QUERY, "k": 2}
        )
        assert entered.wait(10)
        status, body, _ = client.post(
            "/v1/solve", {"database": "zipf", "query": EASY_QUERY, "k": 2}
        )
        assert status == 200, body
        assert held.thread.is_alive()
        release.set()
        assert held.join() == 200
    finally:
        release.set()
        client.close()


def test_lru_eviction_over_http(service_runner):
    runner = service_runner(max_databases=1)
    client = JsonClient("127.0.0.1", runner.port)
    try:
        database = Database.from_dict({"R1": ["A"]}, {"R1": [(1,)]})
        register(client, "first", database)
        register(client, "second", database)
        status, body, _ = client.get("/v1/databases")
        assert [d["name"] for d in body["databases"]] == ["second"]
        assert client.post(
            "/v1/solve", {"database": "first", "query": "Q(A) :- R1(A)", "k": 1}
        )[0] == 404
    finally:
        client.close()


def test_metrics_exposition_and_healthz(service_runner):
    runner = service_runner()
    client = JsonClient("127.0.0.1", runner.port)
    try:
        database = Database.from_dict({"R1": ["A"]}, {"R1": [(1,), (2,)]})
        register(client, "demo", database)
        client.post("/v1/solve", {"database": "demo", "query": "Q(A) :- R1(A)",
                                  "k": 1})
        status, text, headers = client.get("/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        exposition = text.decode("utf-8")
        assert "repro_service_requests_total" in exposition
        assert 'endpoint="/v1/solve",status="200"' in exposition
        assert "repro_service_request_latency_ms_bucket" in exposition
        assert "repro_service_databases_resident 1" in exposition
        status, health, _ = client.get("/healthz")
        assert health["status"] == "ok"
        assert health["databases"] == 1
        assert health["metrics"]["solves_total"] >= 1
    finally:
        client.close()


def test_traced_service_stamps_stages_slow_log_and_access_log(
    service_runner, capsys
):
    """trace=True threads one trace_id from header to slow-log entry."""
    runner = service_runner(
        backend="python", trace=True, slow_ms=0.0,
        log_requests=True,
    )
    client = JsonClient("127.0.0.1", runner.port)
    try:
        register(client, "demo", make_zipf())
        status, body, headers = client.post(
            "/v1/solve", {"database": "demo", "query": QUERY, "k": 2}
        )
        assert status == 200
        assert headers["x-trace-id"] == body["trace_id"]
        assert len(body["trace_id"]) == 16

        status, slow, _ = client.get("/v1/debug/slow")
        assert status == 200
        assert slow["recorded_total"] >= 1
        entry = slow["entries"][0]
        assert entry["route"] == "/v1/solve"
        assert entry["database"] == "demo"
        assert entry["plans"], "plan fingerprints should be captured"
        assert entry["spans"][0]["name"] == "service.solve_batch"

        status, text, _ = client.get("/metrics")
        exposition = text.decode("utf-8")
        assert "repro_service_stage_latency_ms_bucket" in exposition
        assert 'stage="service.solve_batch"' in exposition
        assert 'stage="engine.evaluate"' in exposition
        assert "repro_service_batcher_queue_depth 0" in exposition
        assert "repro_service_registry_evictions_total 0" in exposition
        assert "repro_service_slow_requests_total 1" in exposition
    finally:
        client.close()
    access = capsys.readouterr().out
    assert f"[access] trace={body['trace_id']}" in access
    assert "route=/v1/solve" in access
    assert "db=demo" in access


def test_close_with_idle_keep_alive_clients_logs_nothing(
    service_runner, monkeypatch, caplog
):
    """Shutdown cancels client handlers, some already closing: no asyncio error.

    Closed clients park their handlers in ``wait_closed`` (held open
    here, so ``close()`` deterministically cancels them there); idle
    keep-alive clients are cancelled while waiting for their next request.
    """
    import asyncio
    import logging

    original = asyncio.StreamWriter.wait_closed
    parked = threading.Semaphore(0)
    closing_clients = 3

    async def held_wait_closed(self):
        nonlocal closing_clients
        if closing_clients <= 0:
            return await original(self)
        closing_clients -= 1
        parked.release()
        await asyncio.sleep(3600)

    monkeypatch.setattr(asyncio.StreamWriter, "wait_closed", held_wait_closed)
    caplog.set_level(logging.WARNING, logger="asyncio")
    runner = service_runner()
    clients = [JsonClient("127.0.0.1", runner.port) for _ in range(5)]
    for client in clients:
        assert client.get("/healthz")[0] == 200
    for client in clients[:3]:
        client.close()
    for _ in range(3):
        assert parked.acquire(timeout=10)
    runner.close()
    for client in clients[3:]:
        client.close()
    assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []
