"""Oversized or bloated request heads get a 400 over raw sockets.

``http.client`` refuses to send most of these, so the tests speak HTTP by
hand: send one request, read until the server closes the connection, and
check the status line and the JSON error body.
"""

import json
import socket

import pytest


def _exchange(port: int, request: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


@pytest.mark.parametrize(
    "request_bytes, message",
    [
        pytest.param(
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
            "request line or header too long",
            id="long-header-line",
        ),
        pytest.param(
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
            "request line or header too long",
            id="long-request-line",
        ),
        pytest.param(
            b"GET /healthz HTTP/1.1\r\n"
            + b"".join(b"X-H%d: v\r\n" % i for i in range(101))
            + b"\r\n",
            "too many headers",
            id="101-headers",
        ),
    ],
)
def test_hostile_request_head_is_a_400(service_runner, request_bytes, message):
    runner = service_runner()
    response = _exchange(runner.port, request_bytes)
    head, _sep, body = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 "), response[:200]
    assert b"Connection: close" in head
    assert json.loads(body) == {"error": message}
    # The server keeps serving after the rejected request.
    ok = _exchange(runner.port, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert ok.startswith(b"HTTP/1.1 200 ")


def _post(port: int, path: str, body: bytes) -> bytes:
    return _exchange(
        port,
        b"POST " + path.encode("ascii") + b" HTTP/1.1\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body) + body,
    )


@pytest.mark.parametrize(
    "path, body",
    [
        pytest.param(
            "/v1/solve",
            b'{"database": "demo", "query": "Q(A) :- R1(A)", "k": 1, '
            b'"deadline_ms": NaN}',
            id="nan-deadline",
        ),
        pytest.param(
            "/v1/apply_insertions",
            b'{"database": "demo", "refs": [["R1", [NaN]]]}',
            id="nan-in-refs",
        ),
        pytest.param(
            "/v1/solve",
            b'{"database": "demo", "query": "Q(A) :- R1(A)", "k": 1, '
            b'"deadline_ms": -Infinity}',
            id="negative-infinity-deadline",
        ),
    ],
)
def test_non_json_number_tokens_are_a_400(service_runner, path, body):
    """``NaN``/``Infinity`` are not JSON: a NaN deadline would never expire
    and a NaN tuple value would be stored, so both are rejected up front."""
    from tests.service.conftest import JsonClient

    runner = service_runner()
    client = JsonClient("127.0.0.1", runner.port)
    try:
        status, registered, _ = client.post(
            "/v1/databases",
            {"name": "demo", "schema": {"R1": ["A"]}, "rows": {"R1": [[1], [2]]}},
        )
        assert status == 200, registered
        response = _post(runner.port, path, body)
        head, _sep, payload = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), response[:200]
        assert "not valid JSON" in json.loads(payload)["error"]
        # Nothing was stored: the database is still at its first version.
        status, listing, _ = client.get("/v1/databases")
        assert status == 200
        assert [db["version"] for db in listing["databases"]] == [1]
    finally:
        client.close()


QUERY = "Q(A) :- R1(A)"


@pytest.fixture
def demo_client(service_runner):
    """A client of a fresh service holding ``demo``: R1(A) with rows 1, 2."""
    from tests.service.conftest import JsonClient

    runner = service_runner()
    client = JsonClient("127.0.0.1", runner.port)
    status, body, _ = client.post(
        "/v1/databases",
        {"name": "demo", "schema": {"R1": ["A"]}, "rows": {"R1": [[1], [2]]}},
    )
    assert status == 200, body
    yield runner, client
    client.close()


def _databases(client) -> list:
    status, listing, _ = client.get("/v1/databases")
    assert status == 200
    return [(db["name"], db["version"]) for db in listing["databases"]]


def test_deeply_nested_body_is_a_400(demo_client):
    """200k ``[`` make ``json.loads`` raise ``RecursionError``."""
    runner, client = demo_client
    response = _post(runner.port, "/v1/solve", b"[" * 200_000)
    head, _sep, payload = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 "), response[:200]
    assert json.loads(payload)["error"] == "request body is nested too deeply"
    assert _databases(client) == [("demo", 1)]


@pytest.mark.parametrize(
    "path", ["/v1/what_if", "/v1/apply_deletions", "/v1/apply_insertions"]
)
def test_object_in_ref_values_is_a_400(demo_client, path):
    _runner, client = demo_client
    status, body, _ = client.post(
        path,
        {"database": "demo", "query": QUERY, "refs": [["R1", [{"a": 1}]]]},
    )
    assert status == 400, body
    assert "got an object" in body["error"]
    assert _databases(client) == [("demo", 1)]


def test_array_nested_in_a_ref_value_decodes_to_a_tuple(demo_client):
    """``[[1]]`` is the value ``((1,),)`` on every ref route, so an inserted
    nested value can be what-if'd and deleted again."""
    _runner, client = demo_client
    refs = {"database": "demo", "query": QUERY, "refs": [["R1", [[[1]]]]]}
    status, body, _ = client.post("/v1/what_if", refs)
    assert (status, body["outputs_removed"]) == (200, 0), body
    status, body, _ = client.post("/v1/apply_insertions", refs)
    assert (status, body["added"]) == (200, 1), body
    status, body, _ = client.post("/v1/what_if", refs)
    assert (status, body["outputs_removed"]) == (200, 1), body
    status, body, _ = client.post("/v1/apply_deletions", refs)
    assert (status, body["removed"]) == (200, 1), body


@pytest.mark.parametrize(
    "rows, message",
    [
        pytest.param(
            {"R1": [5]}, "rows of R1 must be arrays of values, got int",
            id="row-not-an-array",
        ),
        pytest.param(
            {"R1": 5}, "rows of R1 must be a list of rows, got int",
            id="rows-not-a-list",
        ),
        pytest.param({"R1": [[{"a": 1}]]}, "got an object", id="object-value"),
    ],
)
def test_malformed_registration_rows_are_a_400(demo_client, rows, message):
    _runner, client = demo_client
    status, body, _ = client.post(
        "/v1/databases", {"name": "other", "schema": {"R1": ["A"]}, "rows": rows}
    )
    assert status == 400, body
    assert message in body["error"]
    assert _databases(client) == [("demo", 1)]


_FLAG_BODIES = {
    "/v1/solve": {"database": "demo", "query": QUERY, "k": 1},
    "/v1/what_if": {"database": "demo", "query": QUERY, "refs": [["R1", [1]]]},
    "/v1/explain": {"database": "demo", "query": QUERY},
    "/v1/databases": {"name": "demo", "schema": {"R1": ["A"]}, "rows": {}},
}


@pytest.mark.parametrize(
    "path, field",
    [
        ("/v1/solve", "counting_only"),
        ("/v1/solve", "stats"),
        ("/v1/solve", "batch"),
        ("/v1/what_if", "include_after"),
        ("/v1/explain", "analyze"),
        ("/v1/databases", "replace"),
    ],
)
@pytest.mark.parametrize("value", ["false", 1, None])
def test_request_flags_must_be_json_booleans(demo_client, path, field, value):
    """``bool("false")`` is true: a string flag would silently flip it."""
    _runner, client = demo_client
    status, body, _ = client.post(path, {**_FLAG_BODIES[path], field: value})
    assert status == 400, body
    assert body["error"] == f"{field!r} must be true or false, got {value!r}"
    assert _databases(client) == [("demo", 1)]


@pytest.mark.parametrize("value", [True, False])
def test_boolean_deadline_is_a_400(demo_client, value):
    """``true`` is the int 1 in Python: it would become a 1 ms deadline."""
    _runner, client = demo_client
    status, body, _ = client.post(
        "/v1/solve", {**_FLAG_BODIES["/v1/solve"], "deadline_ms": value}
    )
    assert status == 400, body
    assert "deadline_ms must be a number" in body["error"]


@pytest.mark.parametrize(
    "target",
    [{"k": -3}, {"k": 0}, {"ratio": 7.5}, {"ratio": -1}],
    ids=["k-negative", "k-zero", "ratio-above-one", "ratio-negative"],
)
def test_out_of_range_target_on_an_empty_result_is_a_400(demo_client, target):
    """The range check runs before the empty-result shortcut: a target that
    a non-empty result rejects is rejected on an empty one too, while an
    in-range target is answered with objective 0."""
    _runner, client = demo_client
    status, body, _ = client.post(
        "/v1/databases",
        {"name": "empty", "schema": {"R1": ["A"]}, "rows": {"R1": []}},
    )
    assert status == 200, body
    for database in ("demo", "empty"):
        status, body, _ = client.post(
            "/v1/solve", {"database": database, "query": QUERY, **target}
        )
        assert status == 400, (database, body)
        assert "must be" in body["error"]
    # k > |Q(D)| stays excused on an empty result.
    status, body, _ = client.post(
        "/v1/solve", {"database": "empty", "query": QUERY, "k": 5}
    )
    assert status == 200, body
    assert (body["output_size"], body["objective"]) == (0, 0)
