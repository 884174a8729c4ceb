"""The shared HTTP front door, driven through both servers.

:class:`~repro.service.app.MiningService` and
:class:`~repro.router.app.RouterService` share one connection loop
(:mod:`repro.service.frontdoor`), so every case here runs against an
in-process service and against an in-process router fronting it:

* a body of deeply nested JSON is a 400 "body is not valid JSON",
  counted and traced like any other 400 (it used to drop the
  connection with an unhandled ``RecursionError``);
* a request whose head or declared body stalls is answered 408 with
  ``Connection: close`` once ``HEAD_TIMEOUT`` passes, counted as
  endpoint ``other`` -- a head after a finished one on the same
  connection gets its whole timeout too -- while an idle keep-alive
  connection held past the same timeout still gets its next answer,
  and so does a body sent in parts, or after ``100 Continue``, in time;
* a message refused at the framing level (malformed request line,
  chunked encoding, bad ``Content-Length``) is a 400 counted as
  endpoint ``other``;
* request counting clamps endpoint labels: unknown paths count as
  ``other`` and ``/trace/<id>`` as ``/trace``.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import time

import pytest

from repro.core.model import BernoulliModel
from repro.router import RouterService
from repro.service import MiningService, ServiceThread
from repro.service import frontdoor

MODEL = BernoulliModel.uniform("ab")

#: Each server's request counter.
COUNTERS = {
    "service": "repro_http_requests_total",
    "router": "repro_router_requests_total",
}


@pytest.fixture(scope="module")
def servers():
    with ServiceThread(MiningService(MODEL)) as shard:
        router = RouterService([shard.address], health_interval=5.0)
        with ServiceThread(router) as edge:
            yield {"service": shard.address, "router": edge.address}


@pytest.fixture(params=["service", "router"])
def server(request, servers):
    """(kind, address) of each server in turn."""
    return request.param, servers[request.param]


def _exchange(address, method, path, body=None):
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.headers, response.read()
    finally:
        connection.close()


def _count(kind, address, endpoint, status) -> float:
    """The server's own request count for (endpoint, status)."""
    _, _, scrape = _exchange(address, "GET", "/metrics")
    sample = re.compile(
        rf'^{COUNTERS[kind]}\{{endpoint="{re.escape(endpoint)}",'
        rf'status="{status}"\}} (\S+)$',
        re.MULTILINE,
    ).search(scrape.decode())
    return float(sample.group(1)) if sample else 0.0


@pytest.mark.parametrize("depth", [200_000, 300_000], ids=["inline", "offloaded"])
def test_deeply_nested_json_is_a_400(server, depth):
    kind, address = server
    before = _count(kind, address, "/mine", 400)
    status, headers, body = _exchange(address, "POST", "/mine", b"[" * depth)
    assert status == 400
    assert json.loads(body)["error"] == "body is not valid JSON"
    assert _count(kind, address, "/mine", 400) == before + 1
    # The request's trace was finished and kept (errors always are).
    trace_id = headers["X-Trace-Id"]
    status, _, tree = _exchange(address, "GET", f"/trace/{trace_id}")
    assert status == 200
    assert json.loads(tree)["trace_id"] == trace_id


def _read_until_closed(sock) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def test_a_stalled_head_is_answered_408_and_closed(server, monkeypatch):
    kind, address = server
    monkeypatch.setattr(frontdoor, "HEAD_TIMEOUT", 0.3)
    before = _count(kind, address, "other", 408)
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(b"POST /mine HTTP/1.1\r\nContent-Le")
        started = time.monotonic()
        answer = _read_until_closed(sock)
    assert 0.25 <= time.monotonic() - started < 5.0
    head, _, body = answer.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
    assert b"\r\nConnection: close" in head
    assert "not complete within 0.3s" in json.loads(body)["error"]
    assert _count(kind, address, "other", 408) == before + 1


def test_a_stalled_body_is_answered_408_and_closed(server, monkeypatch):
    kind, address = server
    monkeypatch.setattr(frontdoor, "HEAD_TIMEOUT", 0.3)
    before = _count(kind, address, "other", 408)
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(
            b"POST /mine HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
            b'{"text": "'
        )
        started = time.monotonic()
        answer = _read_until_closed(sock)
    assert 0.25 <= time.monotonic() - started < 5.0
    head, _, body = answer.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
    assert b"\r\nConnection: close" in head
    assert "body not complete within 0.3s" in json.loads(body)["error"]
    assert _count(kind, address, "other", 408) == before + 1


def _mine_body() -> bytes:
    return json.dumps({"text": "ab" * 20 + "a" * 12 + "ba" * 20}).encode()


def _read_response(sock) -> bytes:
    """One whole response off a keep-alive socket."""
    data = b""
    while b"\r\n\r\n" not in data:
        data += sock.recv(65536)
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    while len(body) < length:
        body += sock.recv(65536)
    return head + b"\r\n\r\n" + body


def test_a_body_sent_in_parts_in_time_is_answered(server, monkeypatch):
    _, address = server
    monkeypatch.setattr(frontdoor, "HEAD_TIMEOUT", 2.0)
    body = _mine_body()
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(
            b"POST /mine HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            % len(body) + body[:10]
        )
        time.sleep(0.2)
        sock.sendall(body[10:])
        answer = _read_response(sock)
    assert answer.startswith(b"HTTP/1.1 200 OK\r\n")
    assert json.loads(answer.partition(b"\r\n\r\n")[2])["documents"] == 1


def test_expect_100_continue_still_gets_its_answer(server, monkeypatch):
    _, address = server
    monkeypatch.setattr(frontdoor, "HEAD_TIMEOUT", 2.0)
    body = _mine_body()
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(
            b"POST /mine HTTP/1.1\r\nExpect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        )
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            interim += sock.recv(1)
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        answer = _read_response(sock)
    assert answer.startswith(b"HTTP/1.1 200 OK\r\n")


@pytest.mark.parametrize("request_head", [
    b"NOT-HTTP\r\n\r\n",
    b"POST /mine HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    b"POST /mine HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
], ids=["request-line", "chunked", "content-length"])
def test_framing_400s_are_counted(server, request_head):
    kind, address = server
    before = _count(kind, address, "other", 400)
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(request_head)
        answer = _read_until_closed(sock)
    assert answer.startswith(b"HTTP/1.1 400 Bad Request\r\n")
    assert _count(kind, address, "other", 400) == before + 1


def test_a_head_after_a_finished_one_gets_its_whole_timeout(
    server, monkeypatch
):
    """The connection's clock was armed for the first head; the second,
    started 0.1 s later, is still cut off only its own 0.3 s in."""
    _, address = server
    monkeypatch.setattr(frontdoor, "HEAD_TIMEOUT", 0.3)
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
        first = b""
        while b"\r\n\r\n" not in first or not first.endswith(b"}"):
            first += sock.recv(65536)
        assert first.startswith(b"HTTP/1.1 200 OK\r\n")
        time.sleep(0.1)
        sock.sendall(b"GET /heal")
        started = time.monotonic()
        answer = _read_until_closed(sock)
    assert 0.28 <= time.monotonic() - started < 5.0
    assert answer.startswith(b"HTTP/1.1 408 Request Timeout\r\n")


def test_an_idle_keep_alive_connection_outlives_the_head_timeout(
    server, monkeypatch
):
    _, address = server
    monkeypatch.setattr(frontdoor, "HEAD_TIMEOUT", 0.2)
    connection = http.client.HTTPConnection(*address, timeout=10)
    try:
        connection.request("GET", "/healthz")
        first = connection.getresponse()
        first.read()
        local = connection.sock.getsockname()
        time.sleep(0.6)
        connection.request("GET", "/healthz")
        second = connection.getresponse()
        second.read()
        assert (first.status, second.status) == (200, 200)
        assert connection.sock.getsockname() == local  # same connection
    finally:
        connection.close()


def test_endpoint_labels_are_clamped(server):
    kind, address = server
    unknown = _count(kind, address, "other", 404)
    traces = _count(kind, address, "/trace", 404)
    assert _exchange(address, "GET", "/no/such/path")[0] == 404
    assert _exchange(address, "GET", "/trace/0123456789abcdef")[0] == 404
    assert _count(kind, address, "other", 404) == unknown + 1
    assert _count(kind, address, "/trace", 404) == traces + 1
