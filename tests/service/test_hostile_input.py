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
