"""Load-generator error paths: the closed loop against broken servers.

The loadgen's contract is that a phase always terminates with every
request accounted as succeeded or failed — against servers that refuse
connections, drop mid-body, or answer nothing but 429.  Each scenario
here runs a real socket server (or none at all) so the client-side
classification, retry, and give-up logic is exercised on the wire.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.api.errors import ApiError, CapacityError
from repro.api.types import SCHEMA_VERSION, Query
from repro.serve.client import ServeClient
from repro.serve.loadgen import build_keyed_pool, run_shard_phase
from repro.serve.registry import ReplicaSet

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


def _replica_set_at(host: str, port: int) -> ReplicaSet:
    replicas = ReplicaSet(fail_after=2)
    replicas.register("r0", host, port)
    return replicas


def test_shard_phase_terminates_against_dead_replicas():
    """Every request is accounted failed — promptly, no hang — when the
    whole fleet is unreachable."""
    port = _free_port()
    pool = build_keyed_pool(6)
    phase, responses = run_shard_phase(
        "dead-fleet",
        _replica_set_at("127.0.0.1", port),
        [pool[:3], pool[3:]],
        request_deadline_s=1.0,
        backoff_base_s=0.01,
        backoff_cap_s=0.05,
        timeout_s=5.0,
    )
    assert responses == []
    assert phase.offered == 6
    assert phase.succeeded == 0
    assert phase.failed == 6
    assert phase.goodput_rps == 0.0


def test_shard_phase_retries_429s_then_gives_up():
    """Pure backpressure: the closed loop must retry with backoff (the
    retries counter proves it) and still terminate at the request
    deadline with everything accounted."""
    envelope = json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "error": {"code": "capacity", "message": "always full"},
        }
    ).encode("utf-8")

    def handler(conn: socket.socket) -> None:
        while _read_request(conn).strip():
            _respond(conn, "429 Too Many Requests", envelope)

    pool = build_keyed_pool(4)
    with _FakeServer(handler) as server:
        phase, responses = run_shard_phase(
            "all-429",
            _replica_set_at(server.host, server.port),
            [pool[:2], pool[2:]],
            request_deadline_s=0.8,
            backoff_base_s=0.01,
            backoff_cap_s=0.05,
            timeout_s=5.0,
        )
    assert responses == []
    assert phase.failed == 4
    assert phase.retries > 0
    assert phase.success_rate == 0.0


def test_shard_phase_survives_mid_body_disconnects():
    def handler(conn: socket.socket) -> None:
        _read_request(conn)
        conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 512\r\n\r\n{")

    pool = build_keyed_pool(4)
    with _FakeServer(handler) as server:
        phase, responses = run_shard_phase(
            "mid-body",
            _replica_set_at(server.host, server.port),
            [pool[:2], pool[2:]],
            request_deadline_s=1.0,
            backoff_base_s=0.01,
            timeout_s=5.0,
        )
    assert responses == []
    assert phase.offered == 4
    assert phase.succeeded == 0
    assert phase.failed == 4
