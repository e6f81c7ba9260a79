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
