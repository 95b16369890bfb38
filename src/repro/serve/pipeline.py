"""The request pipeline shared by the prediction service and the router.

:class:`~repro.serve.service.PredictionService` (one process answering
from its own worker pool) and :class:`~repro.serve.shard.ShardRouter`
(a front end forwarding to replicas) answer ``/v1/predict`` and
``/v1/plan`` with the same front half, implemented once here:

1. schema negotiation and parsing — a predict body carries exactly one
   of ``query``, ``queries`` or ``grid``; a plan body carries ``plan``;
2. the per-request deadline (``deadline_s``, else the configured
   default);
3. admission — a request expanding past ``max_request_queries``
   queries (or plan candidates) is refused with a 429, and only a
   ``running`` front end accepts work;
4. per-query content-addressed keying, which validates each query
   (the service keys its result cache with them, the router its ring);
5. the back half, which is all a subclass supplies:
   :meth:`RequestPipeline._answer` answers the queries and says how many
   came from a result cache, and :meth:`RequestPipeline._solve_plan`
   solves one plan;
6. answers are returned in submission order inside the versioned
   success envelope.

Metric names carry each front end's prefix (``serve.*`` on the service,
``router.*`` on the router).
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Awaitable, Iterable, Mapping, Sequence
from typing import TYPE_CHECKING, Any, TypeVar

from repro.api.envelope import plan_envelope_bytes, success_envelope
from repro.api.errors import CapacityError, DeadlineExceededError, ValidationError
from repro.api.facade import Predictor
from repro.api.plan import PlanRequest, PlanResult
from repro.api.types import PredictionResult, Query, QueryGrid, check_schema_version
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.serve.service import ServiceConfig

__all__ = ["RequestPipeline", "sum_counters"]

T = TypeVar("T")


def sum_counters(
    blocks: Iterable[Mapping[str, Any]], skip: Sequence[str] = ()
) -> dict[str, Any]:
    """Field-wise sum of counter blocks, with ``hit_rate`` recomputed
    from the summed ``hits``/``misses`` (a ratio never sums)."""
    total: dict[str, Any] = {}
    for block in blocks:
        for name, value in block.items():
            if name != "hit_rate" and name not in skip:
                total[name] = total.get(name, 0) + value
    lookups = total.get("hits", 0) + total.get("misses", 0)
    total["hit_rate"] = total.get("hits", 0) / lookups if lookups else 0.0
    return total


class RequestPipeline:
    """Front half of ``/v1/predict`` and ``/v1/plan`` (see module doc)."""

    #: Prefix of this front end's metric names.
    _prefix = "serve"
    #: What error messages call this front end.
    _role = "service"
    #: Wait past ``deadline_s`` before giving up on the back half, and
    #: how the resulting 504 names the place it expired.
    _deadline_grace_s = 0.0
    _deadline_where = ""
    #: Histogram of whole ``/v1/plan`` handling time (``None``: none).
    _plan_histogram: str | None = "serve.plan_ms"

    def __init__(self, service: "ServiceConfig") -> None:
        self.metrics = MetricsRegistry()
        # Resolution/keying only — never evaluates, so event-loop-only use
        # is safe alongside any evaluating predictors.
        self._resolver = Predictor(machine=service.machine)
        self._service_config = service
        self._state = "created"
        self._started_monotonic: float | None = None

    # -- lifecycle ------------------------------------------------------------
    @property
    def state(self) -> str:
        """``created`` -> ``running`` -> ``draining`` -> ``stopped``."""
        return self._state

    @property
    def running(self) -> bool:
        return self._state == "running"

    def uptime_s(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    # -- parsing ----------------------------------------------------------------
    @staticmethod
    def parse_queries(payload: Mapping[str, Any]) -> list[Query]:
        """Queries of one request body (exactly one form present)."""
        if not isinstance(payload, Mapping):
            raise ValidationError("request body must be a JSON object")
        check_schema_version(payload.get("schema_version"))
        forms = [k for k in ("query", "queries", "grid") if k in payload]
        if len(forms) != 1:
            raise ValidationError(
                "request must carry exactly one of 'query', 'queries' or "
                f"'grid' (got {forms or 'none'})"
            )
        unknown = sorted(
            set(payload) - {"schema_version", "deadline_s", forms[0]}
        )
        if unknown:
            raise ValidationError(f"unknown field(s): {', '.join(unknown)}")
        if "query" in payload:
            return [Query.from_dict(payload["query"])]
        if "queries" in payload:
            entries = payload["queries"]
            if not isinstance(entries, Sequence) or isinstance(
                entries, (str, bytes)
            ):
                raise ValidationError("'queries' must be a list")
            if not entries:
                raise ValidationError("'queries' must not be empty")
            return [Query.from_dict(q) for q in entries]
        return list(QueryGrid.from_dict(payload["grid"]).expand())

    @staticmethod
    def parse_plan(payload: Mapping[str, Any]) -> PlanRequest:
        """The :class:`~repro.api.plan.PlanRequest` of one ``/v1/plan``
        body (``{"plan": {...}}`` plus the shared envelope fields)."""
        if not isinstance(payload, Mapping):
            raise ValidationError("request body must be a JSON object")
        check_schema_version(payload.get("schema_version"))
        if "plan" not in payload:
            raise ValidationError("request must carry a 'plan' object")
        unknown = sorted(set(payload) - {"schema_version", "deadline_s", "plan"})
        if unknown:
            raise ValidationError(f"unknown field(s): {', '.join(unknown)}")
        return PlanRequest.from_dict(payload["plan"])

    def _deadline_s(self, payload: Mapping[str, Any]) -> float:
        value = payload.get("deadline_s", self._service_config.default_deadline_s)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"deadline_s must be a number, got {value!r}")
        if value <= 0:
            raise ValidationError(f"deadline_s must be positive, got {value}")
        return float(value)

    def _admit(self, count: int, what: str, unit: str) -> None:
        """Refuse oversized requests, then anything while not running."""
        limit = self._service_config.max_request_queries
        if count > limit:
            self.metrics.add(f"{self._prefix}.rejected")
            raise CapacityError(
                f"{what} expands to {count} {unit}; the {self._role} caps "
                f"requests at {limit}",
                details={"max_request_queries": limit},
            )
        if self._state != "running":
            raise CapacityError(f"{self._role} is {self._state}")

    async def _within_deadline(
        self, awaitable: Awaitable[T], deadline_s: float, pending: str
    ) -> T:
        """Await the back half; on expiry count it and raise the 504
        (the timeout cancels whatever is still queued)."""
        try:
            return await asyncio.wait_for(
                awaitable, timeout=deadline_s + self._deadline_grace_s
            )
        except asyncio.TimeoutError:
            self.metrics.add(f"{self._prefix}.deadline_exceeded")
            raise DeadlineExceededError(
                f"deadline of {deadline_s:g}s exceeded{self._deadline_where} "
                f"({pending})",
                details={"deadline_s": deadline_s},
            ) from None

    # -- /v1/predict --------------------------------------------------------------
    async def handle_predict(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Answer one ``/v1/predict`` body with the versioned envelope."""
        started = time.perf_counter()
        queries = self.parse_queries(payload)
        deadline_s = self._deadline_s(payload)
        self._admit(len(queries), "request", "queries")
        # Content-addressed run keys, which also validate each query.
        keys = [self._resolver.cache_key(q) for q in queries]
        results, cached = await self._answer(queries, keys, deadline_s)
        self.metrics.add(f"{self._prefix}.queries", float(len(queries)))
        elapsed_ms = (time.perf_counter() - started) * 1e3
        return success_envelope(
            results=[r.to_dict() for r in results],
            meta={
                "queries": len(queries),
                "cached": cached,
                "computed": len(queries) - cached,
                "elapsed_ms": elapsed_ms,
            },
        )

    async def _answer(
        self, queries: list[Query], keys: list[str], deadline_s: float
    ) -> tuple[Sequence[PredictionResult], int]:
        """The queries' answers, in order, within ``deadline_s``, and how
        many of them came from a result cache."""
        raise NotImplementedError

    # -- /v1/plan -----------------------------------------------------------------
    async def handle_plan(self, payload: Mapping[str, Any]) -> bytes:
        """Answer one ``/v1/plan`` body with the versioned envelope,
        encoded (:func:`~repro.api.envelope.plan_envelope_bytes`)."""
        started = time.perf_counter()
        request = self.parse_plan(payload)
        deadline_s = self._deadline_s(payload)
        candidates = request.candidate_count()
        self._admit(candidates, "plan", "candidate queries")
        result = await self._solve_plan(request, deadline_s)
        elapsed_ms = (time.perf_counter() - started) * 1e3
        self.metrics.add(f"{self._prefix}.plans")
        if self._plan_histogram is not None:
            self.metrics.observe(self._plan_histogram, elapsed_ms)
        return plan_envelope_bytes(
            result,
            {
                "items": len(request.mix),
                "pool": len(request.pool),
                "candidates": candidates,
                "elapsed_ms": elapsed_ms,
            },
        )

    async def _solve_plan(
        self, request: PlanRequest, deadline_s: float
    ) -> PlanResult:
        """One plan's solution within ``deadline_s``."""
        raise NotImplementedError

    # -- /metrics -------------------------------------------------------------------
    async def metrics_document(self) -> dict[str, Any]:
        """The ``/metrics`` document."""
        raise NotImplementedError
