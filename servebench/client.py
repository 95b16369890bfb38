"""Closed-loop HTTP client: keep-alive connections, one request in flight each.

Every request body is encoded before the timed window; during the window
a connection only writes prepared bytes and reads the reply, so the
client's own cost stays small and constant.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence


@dataclass(frozen=True)
class Request:
    """One prepared request.

    ``units`` is the number of queries the request answers: the grid's
    points, 1 for a single query, a plan's candidate queries.
    ``tag`` identifies the request for the verifier.
    """

    path: str
    wire: bytes
    units: int
    tag: object


def post(path: str, payload: object, units: int, tag: object) -> Request:
    """Encode a JSON POST request once, ahead of any timed window."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: servebench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"\r\n"
    ).encode("latin-1")
    return Request(path, head + body, units, tag)


@dataclass
class Outcome:
    """A request as it went: timings, status and the raw reply body
    (``None`` when the transport failed)."""

    request: Request
    sent: float
    done: float
    status: int
    body: bytes | None

    @property
    def latency_s(self) -> float:
        return self.done - self.sent


class Connection:
    """A minimal keep-alive HTTP/1.1 client connection."""

    def __init__(self, host: str, port: int, timeout_s: float = 60.0) -> None:
        self.host, self.port, self.timeout_s = host, port, timeout_s
        self._sock: socket.socket | None = None
        self._reader = None

    def connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout_s
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def round_trip(self, wire: bytes) -> tuple[int, bytes]:
        """Send one prepared request; return (status, body).  Raises
        ``OSError`` on any transport or framing failure."""
        if self._sock is None:
            self.connect()
        assert self._sock is not None and self._reader is not None
        self._sock.sendall(wire)
        status_line = self._reader.readline(65536)
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/1."):
            raise ConnectionError(f"bad status line {status_line!r}")
        length = 0
        while True:
            line = self._reader.readline(65536)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        body = self._reader.read(length) if length else b""
        if len(body) != length:
            raise ConnectionError("connection closed mid-body")
        return int(parts[1]), body

    def get(self, path: str) -> tuple[int, bytes]:
        return self.round_trip(
            f"GET {path} HTTP/1.1\r\nHost: servebench\r\n\r\n".encode("latin-1")
        )

    def send(self, request: Request) -> Outcome:
        sent = time.perf_counter()
        try:
            status, body = self.round_trip(request.wire)
        except OSError:
            self.close()
            return Outcome(request, sent, time.perf_counter(), 0, None)
        return Outcome(request, sent, time.perf_counter(), status, body)


@dataclass
class Window:
    """What one closed-loop phase measured."""

    started: float
    outcomes: list[Outcome] = field(default_factory=list)
    cut_short: bool = False

    @property
    def elapsed_s(self) -> float:
        if not self.outcomes:
            return 0.0
        return max(o.done for o in self.outcomes) - self.started


def run_sequential(host: str, port: int, requests: Sequence[Request]) -> list[Outcome]:
    """Send ``requests`` one after another on one connection."""
    connection = Connection(host, port)
    try:
        return [connection.send(r) for r in requests]
    finally:
        connection.close()


def closed_loop(
    host: str,
    port: int,
    requests: Sequence[Request],
    lanes: int,
    limit_s: float | None = None,
) -> Window:
    """Send every request over ``lanes`` keep-alive connections, each
    with one request in flight: a lane takes the next unsent request as
    soon as its previous reply is in.  ``limit_s`` stops handing out
    requests after that long (the window is then cut short)."""
    results: list[list[Outcome]] = [[] for _ in range(lanes)]
    connections = [Connection(host, port) for _ in range(lanes)]
    for connection in connections:
        connection.connect()
    cursor = iter(range(len(requests)))
    cursor_lock = threading.Lock()
    start_gate = threading.Barrier(lanes + 1)
    state = {"start": 0.0, "cut_short": False}

    def lane_loop(index: int) -> None:
        connection, out = connections[index], results[index]
        start_gate.wait()
        deadline = None if limit_s is None else state["start"] + limit_s
        while True:
            with cursor_lock:
                position = next(cursor, None)
                if position is not None and deadline is not None:
                    if time.perf_counter() >= deadline:
                        state["cut_short"], position = True, None
            if position is None:
                return
            out.append(connection.send(requests[position]))

    threads = [
        threading.Thread(target=lane_loop, args=(i,), name=f"lane-{i}")
        for i in range(lanes)
    ]
    for thread in threads:
        thread.start()
    state["start"] = time.perf_counter()
    start_gate.wait()
    for thread in threads:
        thread.join()
    for connection in connections:
        connection.close()
    window = Window(started=state["start"], cut_short=state["cut_short"])
    for out in results:
        window.outcomes.extend(out)
    return window
