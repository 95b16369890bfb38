"""Client error paths: the wire client and the closed loop against
broken servers.

``ServeClient`` must surface every broken server — one that refuses
connections, drops mid-body, sends unparseable framing, or answers
nothing but 429 — as a typed error, and the closed-loop driver's phase
must always terminate with every request counted as answered or
failed.  Each scenario here runs a real socket server (or none at all)
so the classification is exercised on the wire.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.api.errors import ApiError, CapacityError
from repro.api.types import SCHEMA_VERSION, Query
from repro.serve.client import ServeClient
from repro.serve.loadgen import build_query_pool, run_phase

pytestmark = pytest.mark.tier1


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class _FakeServer:
    """Accept loop that hands every connection to ``handler``."""

    def __init__(self, handler) -> None:
        self._handler = handler
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self.host, self.port = self._listener.getsockname()
        self._closing = False
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            try:
                self._handler(conn)
            finally:
                conn.close()

    def close(self) -> None:
        self._closing = True
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does, so the join below returns at once.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._thread.join(timeout=10)

    def __enter__(self) -> "_FakeServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _read_request(conn: socket.socket) -> bytes:
    """Consume one HTTP request (headers + content-length body)."""
    conn.settimeout(10.0)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(4096)
        if not chunk:
            return data
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n"):
        name, sep, value = line.partition(b":")
        if sep and name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(rest) < length:
        chunk = conn.recv(4096)
        if not chunk:
            break
        rest += chunk
    return head + b"\r\n\r\n" + rest


def _respond(conn: socket.socket, status: str, body: bytes) -> None:
    conn.sendall(
        (
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        + body
    )


def _query() -> Query:
    return Query(workload="gups", size_gb=16.0, config="DRAM", num_threads=64)


def test_connection_refused_raises_oserror():
    port = _free_port()  # nothing is listening here
    with ServeClient("127.0.0.1", port, timeout=5.0) as client:
        with pytest.raises(OSError):
            client.predict(_query())


def test_mid_body_disconnect_is_a_connection_error():
    """A server that dies mid-response must surface as a transport
    error (after the one keep-alive retry), never as a half-parsed
    envelope."""

    def handler(conn: socket.socket) -> None:
        _read_request(conn)
        conn.sendall(
            b"HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\n{\"resul"
        )
        # close() in the accept loop drops the rest of the body

    with _FakeServer(handler) as server:
        with ServeClient(server.host, server.port, timeout=5.0) as client:
            with pytest.raises(ConnectionError):
                client.predict(_query())


@pytest.mark.parametrize(
    "head",
    [
        b"HTTP/1.1 OK 200\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n",
    ],
    ids=["status-code", "content-length"],
)
def test_malformed_framing_is_an_api_error(head):
    """Unparseable response framing is the server's fault: a typed
    ``ApiError`` (which routers fail over on and health probes count
    as unhealthy), never a bare ``ValueError``."""

    def handler(conn: socket.socket) -> None:
        _read_request(conn)
        conn.sendall(head)

    with _FakeServer(handler) as server:
        with ServeClient(server.host, server.port, timeout=5.0) as client:
            with pytest.raises(ApiError):
                client.healthz()


def test_backpressure_envelope_rehydrates_as_capacity_error():
    envelope = json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "error": {"code": "capacity", "message": "queue full"},
        }
    ).encode("utf-8")

    def handler(conn: socket.socket) -> None:
        while _read_request(conn).strip():
            _respond(conn, "429 Too Many Requests", envelope)

    with _FakeServer(handler) as server:
        with ServeClient(server.host, server.port, timeout=5.0) as client:
            with pytest.raises(CapacityError):
                client.predict(_query())


def test_run_phase_terminates_against_a_dead_port():
    """Every request is counted as an error — promptly, no hang — when
    nothing listens at the address."""
    port = _free_port()
    pool = build_query_pool(6)
    started = time.monotonic()
    phase, responses = run_phase(
        "dead-port", "127.0.0.1", port, [pool[:3], pool[3:]], deadline_s=1.0
    )
    assert time.monotonic() - started < 10.0
    assert responses == []
    assert phase.requests == 6
    assert phase.errors == 6
    assert phase.success_rate == 0.0


def test_run_phase_raises_a_driver_bug_instead_of_counting_it(monkeypatch):
    """Only wire failures and typed API errors count as failed requests;
    any other exception in a client thread surfaces to the caller."""

    def broken(self, query, **kwargs):
        raise RuntimeError("driver bug")

    monkeypatch.setattr(ServeClient, "predict", broken)
    pool = build_query_pool(4)
    with pytest.raises(RuntimeError, match="driver bug"):
        run_phase("bug", "127.0.0.1", _free_port(), [pool[:2], pool[2:]])
