"""Zero-dependency stdlib client for the prediction service.

Speaks the same :mod:`repro.api` contract as the server: queries go out
as ``to_dict`` JSON, results come back as
:class:`~repro.api.types.PredictionResult` objects, and error envelopes
are rehydrated into the typed :mod:`repro.api.errors` exceptions
(:class:`~repro.api.errors.CapacityError` for a 429,
:class:`~repro.api.errors.DeadlineExceededError` for a 504, ...).

The transport is a deliberately small HTTP/1.1 implementation over a
raw keep-alive socket rather than :mod:`http.client` — the service
always answers with a ``Content-Length`` JSON body, so the general
parser (and its per-response header-object construction) would roughly
double the client-side cost per call, which matters for closed-loop
drivers sending thousands of requests.  A dropped keep-alive socket
is retried transparently once.  One client drives one connection — use
one client per thread.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Mapping, Sequence

from repro.api.errors import ApiError, ValidationError, error_from_info
from repro.api.plan import PlanRequest, PlanResult
from repro.api.types import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    ErrorInfo,
    PredictionResult,
    Query,
    QueryGrid,
)

__all__ = ["ServeClient"]

_MAX_HEADER_BYTES = 64 * 1024


class ServeClient:
    """Thin persistent-connection client for one service endpoint."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8713,
        *,
        timeout: float = 60.0,
        schema_version: int | None = None,
    ) -> None:
        """``schema_version`` pins the envelope version this client
        stamps on requests (downlevel interop / negotiation tests);
        ``None`` speaks the current version.  Unsupported pins fail
        here, not on the wire."""
        self.host = host
        self.port = port
        self.timeout = timeout
        if schema_version is None:
            schema_version = SCHEMA_VERSION
        elif schema_version not in SUPPORTED_SCHEMA_VERSIONS:
            raise ValidationError(
                f"cannot pin schema_version={schema_version!r}; this "
                f"client supports {SUPPORTED_SCHEMA_VERSIONS}"
            )
        self.schema_version = schema_version
        self._sock: socket.socket | None = None
        self._reader: Any = None  # buffered binary file over the socket
        #: How many answers of the last ``/v1/predict`` call the server
        #: served from its result cache (the envelope's ``meta.cached``).
        self.last_cached = 0

    # -- transport ------------------------------------------------------------
    def _connect(self) -> None:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._reader = self._sock.makefile("rb")

    def set_timeout(self, timeout: float) -> None:
        """Adjust the socket timeout, including on a live connection —
        the shard router re-budgets each failover attempt from the
        request's remaining deadline."""
        self.timeout = timeout
        if self._sock is not None:
            self._sock.settimeout(timeout)

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _round_trip(self, request: bytes) -> tuple[int, bytes]:
        """Send one serialized request, parse one response."""
        self._connect()
        assert self._sock is not None
        self._sock.sendall(request)
        status_line = self._reader.readline(_MAX_HEADER_BYTES)
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.split(None, 2)
        if (
            len(parts) < 2
            or not parts[0].startswith(b"HTTP/1.")
            or not parts[1].isdigit()
        ):
            raise ApiError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        length = 0
        while True:
            line = self._reader.readline(_MAX_HEADER_BYTES)
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.partition(b":")
            if sep and name.strip().lower() == b"content-length":
                if not value.strip().isdigit():
                    raise ApiError(f"malformed header {line!r}")
                length = int(value.strip())
        body = self._reader.read(length) if length else b""
        if length and len(body) != length:
            raise ConnectionError("server closed mid-body")
        return status, body

    def request(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None = None,
    ) -> tuple[int, dict[str, Any]]:
        """One round trip; returns ``(status, decoded_body)``.

        Retries exactly once on a dropped keep-alive socket (the server
        may close an idle connection between requests).
        """
        body = (
            b""
            if payload is None
            else json.dumps(payload, sort_keys=True).encode("utf-8")
        )
        request = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n"
            f"\r\n"
        ).encode("latin-1") + body
        for attempt in (0, 1):
            try:
                status, raw = self._round_trip(request)
                break
            except socket.timeout:
                # A timeout is the server being slow, not the socket
                # being stale — retrying would double the wait against a
                # stalled replica; let the caller's failover policy act.
                self.close()
                raise
            except (ConnectionError, OSError):
                self.close()
                if attempt:
                    raise
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError(
                f"service returned non-JSON body (status {status}): {exc}"
            ) from exc
        return status, decoded

    def _call(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """A round trip that raises the typed error for error envelopes."""
        status, decoded = self.request(method, path, payload)
        error = decoded.get("error") if isinstance(decoded, Mapping) else None
        if error is not None:
            raise error_from_info(ErrorInfo.from_dict(error))
        if status >= 400:
            raise ApiError(f"HTTP {status} from {path} without error envelope")
        return decoded

    # -- endpoints --------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        """The health document (raises nothing on 503 — inspect
        ``status``)."""
        _, decoded = self.request("GET", "/healthz")
        return decoded

    def metrics(self) -> dict[str, Any]:
        return self._call("GET", "/metrics")

    def version(self) -> dict[str, Any]:
        return self._call("GET", "/version")

    # -- prediction --------------------------------------------------------------
    def _predict_call(
        self, payload: dict[str, Any], deadline_s: float | None, expected: int
    ) -> list[PredictionResult]:
        payload["schema_version"] = self.schema_version
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        envelope = self._call("POST", "/v1/predict", payload)
        results = envelope.get("results")
        if not isinstance(results, list) or len(results) != expected:
            raise _malformed(f"expected {expected} 'results'")
        meta = envelope.get("meta")
        cached = meta.get("cached") if isinstance(meta, Mapping) else None
        if type(cached) is not int or not 0 <= cached <= expected:
            raise _malformed(f"expected 'meta.cached' in [0, {expected}]")
        self.last_cached = cached
        try:
            return [PredictionResult.from_dict(r) for r in results]
        except ValidationError as exc:
            raise _malformed(str(exc)) from exc

    def predict(
        self, query: Query, *, deadline_s: float | None = None
    ) -> PredictionResult:
        """Answer one query."""
        return self._predict_call({"query": query.to_dict()}, deadline_s, 1)[0]

    def predict_many(
        self, queries: Sequence[Query], *, deadline_s: float | None = None
    ) -> list[PredictionResult]:
        """Answer a list of queries (results in submission order)."""
        return self._predict_call(
            {"queries": [q.to_dict() for q in queries]}, deadline_s, len(queries)
        )

    def predict_grid(
        self, grid: QueryGrid, *, deadline_s: float | None = None
    ) -> list[PredictionResult]:
        """Answer a dense grid (workload-major order)."""
        return self._predict_call({"grid": grid.to_dict()}, deadline_s, len(grid))

    # -- planning ----------------------------------------------------------------
    def plan(
        self, request: PlanRequest, *, deadline_s: float | None = None
    ) -> PlanResult:
        """Solve one capacity plan on the service (``POST /v1/plan``)."""
        payload: dict[str, Any] = {
            "plan": request.to_dict(),
            "schema_version": self.schema_version,
        }
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        envelope = self._call("POST", "/v1/plan", payload)
        plan = envelope.get("plan")
        if not isinstance(plan, Mapping):
            raise _malformed("missing 'plan'")
        try:
            return PlanResult.from_dict(plan)
        except ValidationError as exc:
            raise _malformed(str(exc)) from exc


def _malformed(problem: str) -> ApiError:
    """A 200 whose body does not answer the request: a fault of the
    server that sent it (an ``internal`` error, so routers fail over),
    never of the request."""
    return ApiError(f"malformed response envelope: {problem}")
