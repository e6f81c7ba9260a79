"""Warm solves answered on the event loop from the session's answer memo.

The first solve of a ``k`` on a database version runs on the thread pool
and memoizes its stable payload on the cached curve entry; the next solve
of that ``k`` is answered inline.  An inline answer must be byte-identical
to the executor's apart from the per-request fields, must never overtake a
pending write or outlive its version, and the memo must stay inside its
byte budget.
"""

import threading
import time

import pytest

import repro.engine.cache as cache_module
from repro.data.relation import TupleRef
from repro.engine.backend import numpy_available
from repro.service.serialize import dumps_canonical, solution_payload
from repro.session import Session

from tests.service.conftest import JsonClient
from tests.service.test_http_service import (
    QUERY,
    BackgroundSolve,
    make_zipf,
    register,
    strip_envelope,
    wait_for_pending,
)
from tests.test_curve_cache import CASES

BACKENDS = [
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not numpy_available(), reason="numpy unavailable"),
    ),
]

#: Fields that differ between two answers to the same request.
PER_REQUEST = ("elapsed_ms", "trace_id")


def per_request_free(body: dict) -> bytes:
    return dumps_canonical({k: v for k, v in body.items() if k not in PER_REQUEST})


def counters(client) -> dict:
    return client.get("/healthz")[1]["metrics"]


def memo_gauge(client, database: str) -> float:
    exposition = client.get("/metrics")[1].decode("utf-8")
    assert "# TYPE repro_service_answer_memo_bytes gauge" in exposition
    prefix = f'repro_service_answer_memo_bytes{{database="{database}"}} '
    (line,) = [row for row in exposition.splitlines() if row.startswith(prefix)]
    return float(line[len(prefix):])


def solve(client, payload: dict) -> dict:
    status, body, _ = client.post("/v1/solve", payload)
    assert status == 200, body
    return body


@pytest.mark.parametrize("counting_only", [False, True])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "query,factory,overrides", [case[1:] for case in CASES], ids=[c[0] for c in CASES]
)
def test_inline_answer_is_the_executor_answer(
    service_runner, query, factory, overrides, backend, counting_only
):
    """Every Algorithm 2 branch: the memoized answer is the computed one."""
    runner = service_runner(backend=backend)
    client = JsonClient("127.0.0.1", runner.port)
    try:
        register(client, "db", factory())
        request = {"database": "db", "query": str(query),
                   "counting_only": counting_only}
        if overrides:
            request["method"] = overrides["heuristic"]
        # Executor answers: the curve at |Q(D)| (ratio 1), then a read-off.
        whole = solve(client, {**request, "ratio": 1.0})
        computed = {whole["k"]: whole}
        if 1 not in computed:
            computed[1] = solve(client, {**request, "k": 1})
        assert counters(client)["inline_answers_total"] == 0
        for k, body in computed.items():
            before = counters(client)["inline_answers_total"]
            answered = solve(client, {**request, "k": k})
            assert counters(client)["inline_answers_total"] == before + 1, k
            assert per_request_free(answered) == per_request_free(body), k
    finally:
        client.close()


def test_only_a_memo_hit_counts_and_stats_or_ratio_take_the_executor(service_runner):
    runner = service_runner(backend="python")
    client = JsonClient("127.0.0.1", runner.port)
    try:
        register(client, "zipf", make_zipf())
        session = runner.service.registry.get("zipf").session
        request = {"database": "zipf", "query": QUERY}
        solve(client, {**request, "k": 4})
        assert (session.stats.curve_hits, session.stats.curve_misses) == (0, 1)
        inline = solve(client, {**request, "k": 4})
        assert counters(client)["inline_answers_total"] == 1
        assert session.stats.curve_hits == 1  # one hit per memo hit
        # A memo miss under a covering curve counts one hit, on the executor.
        solve(client, {**request, "k": 3})
        assert session.stats.curve_hits == 2
        assert counters(client)["inline_answers_total"] == 1
        # "stats": true and ratio requests always run on the executor.
        with_stats = solve(client, {**request, "k": 4, "stats": True})
        assert "stats" in with_stats
        assert strip_envelope(
            {k: v for k, v in with_stats.items() if k != "stats"}
        ) == strip_envelope(inline)
        total = inline["output_size"]
        solve(client, {**request, "ratio": 4 / total})
        metrics = counters(client)
        assert metrics["inline_answers_total"] == 1
        assert metrics["solves_total"] == 5
        # The dispatch counters keep their meaning: executor solves only.
        assert metrics["singleton_dispatch_total"] == 4
    finally:
        client.close()


@pytest.mark.parametrize("endpoint", ["/v1/apply_insertions", "/v1/apply_deletions"])
def test_acknowledged_write_retires_the_memo(service_runner, endpoint):
    """After a write, the next solve reports the new version and answer."""
    runner = service_runner(backend="python")
    client = JsonClient("127.0.0.1", runner.port)
    refs = (
        [TupleRef("R1", ("anew",)), TupleRef("R2", ("anew", "bnew")),
         TupleRef("R3", ("bnew",))]
        if endpoint == "/v1/apply_insertions"
        else [TupleRef("R1", ("a0",)), TupleRef("R1", ("a1",))]
    )
    try:
        register(client, "zipf", make_zipf())
        request = {"database": "zipf", "query": QUERY, "k": 5}
        solve(client, request)
        assert solve(client, request)["version"] == 1
        assert counters(client)["inline_answers_total"] == 1
        status, written, _ = client.post(endpoint, {
            "database": "zipf",
            "refs": [[ref.relation, list(ref.values)] for ref in refs],
        })
        assert status == 200 and written["version"] == 2, written
        fresh = solve(client, request)
        assert fresh["version"] == 2
        assert counters(client)["inline_answers_total"] == 1
        with Session(make_zipf(), backend="python") as direct:
            if endpoint == "/v1/apply_insertions":
                direct.apply_insertions(refs)
            else:
                direct.apply_deletions(refs)
            prepared = direct.prepare(QUERY)
            expected = solution_payload(
                direct, prepared, direct.output_size(prepared), direct.solve(prepared, 5)
            )
        assert strip_envelope(fresh) == expected
        again = solve(client, request)
        assert counters(client)["inline_answers_total"] == 2
        assert per_request_free(again) == per_request_free(fresh)
    finally:
        client.close()


def test_a_pending_writer_forces_the_executor_path(service_runner):
    """A read arriving behind a waiting write is answered after it."""
    runner = service_runner(backend="python")
    client = JsonClient("127.0.0.1", runner.port)
    try:
        register(client, "zipf", make_zipf())
        request = {"database": "zipf", "query": QUERY, "k": 5}
        solve(client, request)
        solve(client, request)
        assert counters(client)["inline_answers_total"] == 1
        lock = runner.service.registry.get("zipf").lock
        written = {}

        def write():
            worker = JsonClient("127.0.0.1", runner.port)
            try:
                written["status"], written["body"], _ = worker.post(
                    "/v1/apply_insertions",
                    {"database": "zipf", "refs": [["R1", ["anew"]]]},
                )
            finally:
                worker.close()

        lock.acquire_read()  # an in-flight read the write must drain
        try:
            writer = threading.Thread(target=write)
            writer.start()
            deadline = time.time() + 10
            while not lock._writers_waiting:
                assert time.time() < deadline, "the write never queued"
                time.sleep(0.005)
            reader = BackgroundSolve(runner, request)
            wait_for_pending(client, 2)  # the write and the parked read
            assert counters(client)["inline_answers_total"] == 1
        finally:
            lock.release_read()
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert reader.join() == 200, reader.body
        assert written["status"] == 200 and written["body"]["version"] == 2
        assert reader.body["version"] == 2
        assert counters(client)["inline_answers_total"] == 1
    finally:
        client.close()


def test_k_sweep_keeps_the_memo_under_its_budget(service_runner, monkeypatch):
    budget = 2_000
    monkeypatch.setattr(cache_module, "MAX_ANSWER_BYTES", budget)
    runner = service_runner(backend="python")
    client = JsonClient("127.0.0.1", runner.port)
    try:
        register(client, "zipf", make_zipf())
        request = {"database": "zipf", "query": QUERY}
        total = solve(client, {**request, "k": 1})["output_size"]
        first = {}
        for k in range(1, total + 1):
            first[k] = solve(client, {**request, "k": k})
            assert 0 < memo_gauge(client, "zipf") <= budget, k
        # The newest answers survived eviction; the oldest were evicted and
        # recompute to the same bytes.
        inline_before = counters(client)["inline_answers_total"]
        assert per_request_free(solve(client, {**request, "k": total})) == (
            per_request_free(first[total])
        )
        assert counters(client)["inline_answers_total"] == inline_before + 1
        assert per_request_free(solve(client, {**request, "k": 2})) == (
            per_request_free(first[2])
        )
        assert counters(client)["inline_answers_total"] == inline_before + 1
        assert memo_gauge(client, "zipf") <= budget
    finally:
        client.close()
