"""Zero-dependency asyncio HTTP/1.1 front end for the prediction service.

A deliberately small server — persistent connections, JSON bodies,
five routes:

* ``GET /healthz`` — liveness/readiness (503 while draining/stopped);
* ``GET /metrics`` — the service metrics snapshot;
* ``GET /version`` — schema + build identity;
* ``POST /v1/predict`` — the prediction endpoint;
* ``POST /v1/plan`` — the capacity-planning endpoint.

Errors cross the wire only as the versioned error envelope
``{"schema_version": ..., "error": {code, message, ...}}`` with the
status from the :mod:`repro.api.errors` taxonomy; per-query modelled
infeasibility is *inside* results, not an error envelope.  Every request
is timed into the service registry's per-endpoint latency histogram
(``serve.request_ms{endpoint=...}``).
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any

from repro.api.envelope import error_envelope
from repro.api.errors import ApiError, ValidationError
from repro.serve.pipeline import RequestPipeline

__all__ = ["HttpServer", "DEFAULT_PORT"]

#: Default TCP port of ``repro serve``.
DEFAULT_PORT = 8713

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 16 * 1024 * 1024


class _BadRequest(Exception):
    """Malformed HTTP framing (connection closes after the response)."""


class HttpServer:
    """Asyncio streams server wrapping one request pipeline (a
    :class:`~repro.serve.service.PredictionService` or a
    :class:`~repro.serve.shard.ShardRouter`)."""

    def __init__(
        self,
        service: RequestPipeline,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        # Live connection writers, tracked so abort() can reset them —
        # the fault harness's "SIGKILL as seen by peers" primitive.
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port) —
        useful with ``port=0``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def abort(self) -> None:
        """Crash-stop: close the listener and reset every connection.

        In-flight requests are cut mid-body — peers see exactly what a
        killed process produces (``ECONNRESET`` / truncated reads), which
        is what the fault-injection suite (:mod:`repro.serve.faults`)
        needs to prove failover behaviour.  No draining, no goodbye.
        """
        if self._server is not None:
            self._server.close()
            self._server = None
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        self._writers.clear()

    # -- connection handling ----------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                ):
                    break
                if request is None:  # clean EOF between requests
                    break
                method, path, headers, body = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                )
                status, payload = await self._route(method, path, body)
                await self._write_response(
                    writer, status, payload, keep_alive=keep_alive
                )
                if not keep_alive:
                    break
        except _BadRequest as exc:
            try:
                await self._write_response(
                    writer,
                    400,
                    error_envelope("validation", str(exc)),
                    keep_alive=False,
                )
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        """One request off the wire, or ``None`` on clean EOF."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise
        except asyncio.LimitOverrunError:
            raise _BadRequest("request head too large") from None
        if len(head) > _MAX_HEADER_BYTES:
            raise _BadRequest("request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(f"malformed request line {lines[0]!r}")
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _BadRequest(f"malformed header {line!r}")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _BadRequest(
                f"bad Content-Length {length_text!r}"
            ) from None
        if length < 0 or length > _MAX_BODY_BYTES:
            raise _BadRequest(f"unacceptable Content-Length {length}")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    # -- routing ----------------------------------------------------------------
    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any] | bytes]:
        started = time.perf_counter()
        endpoint = path.split("?", 1)[0]
        try:
            status, payload = await self._dispatch(method, endpoint, body)
        except ApiError as exc:
            status = exc.http_status
            payload = error_envelope(exc)
        except Exception as exc:  # pragma: no cover - defensive
            status = 500
            payload = error_envelope("internal", f"{type(exc).__name__}: {exc}")
        self.service.metrics.observe(
            "serve.request_ms",
            (time.perf_counter() - started) * 1e3,
            {"endpoint": endpoint},
        )
        self.service.metrics.add(
            "serve.requests", 1.0, {"endpoint": endpoint, "status": status}
        )
        return status, payload

    async def _dispatch(
        self, method: str, endpoint: str, body: bytes
    ) -> tuple[int, dict[str, Any] | bytes]:
        if endpoint == "/healthz":
            if method != "GET":
                return 405, error_envelope("validation", "use GET /healthz")
            health = self.service.healthz()
            return (200 if self.service.running else 503), health
        if endpoint == "/metrics":
            if method != "GET":
                return 405, error_envelope("validation", "use GET /metrics")
            return 200, await self.service.metrics_document()
        if endpoint == "/version":
            if method != "GET":
                return 405, error_envelope("validation", "use GET /version")
            return 200, self.service.version()
        if endpoint == "/v1/predict":
            if method != "POST":
                return 405, error_envelope(
                    "validation", "use POST /v1/predict"
                )
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ValidationError(f"request body is not JSON: {exc}") from exc
            return 200, await self.service.handle_predict(payload)
        if endpoint == "/v1/plan":
            if method != "POST":
                return 405, error_envelope("validation", "use POST /v1/plan")
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ValidationError(f"request body is not JSON: {exc}") from exc
            return 200, await self.service.handle_plan(payload)
        return 404, error_envelope("not_found", f"no route {endpoint!r}")

    # -- responses --------------------------------------------------------------
    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any] | bytes,
        *,
        keep_alive: bool,
    ) -> None:
        """Write one response; ``payload`` is a JSON document, or a body
        its handler already encoded (a ``/v1/plan`` answer)."""
        if isinstance(payload, bytes):
            body = payload
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

