"""Request coalescing: many concurrent queries, few dense batches.

Concurrent requests land individual queries in one bounded queue; one
dispatcher task drains the queue in arrival order and ships each
drained slice as **one** batch to an evaluation callable on a worker
pool (where it reaches the columnar
:class:`~repro.engine.batch.BatchEvaluator`).  A free dispatcher never
waits: it drains whatever is queued, up to ``max_batch``, the moment it
wakes.  Queries that arrive while the dispatcher is busy evaluating
pile up and leave together as the next batch (group commit), so batch
size follows queue depth — a lone query goes out alone, a burst goes
out dense — and per-query results stay bit-identical to scalar
evaluation either way.

Backpressure is explicit: a full queue (or a draining coalescer)
rejects at submission time with
:class:`~repro.api.errors.CapacityError` — the wire 429 — instead of
building unbounded latency.  Deadline cancellation is cooperative:
entries whose futures were cancelled (the request timed out while
queued) are skipped when a batch is drained, so expired work is never
evaluated.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.api.errors import CapacityError
from repro.api.types import PredictionResult, Query
from repro.obs.metrics import MetricsRegistry

__all__ = ["Coalescer"]


@dataclass
class _Pending:
    """One queued query, what travels with it, and the future its
    requests await."""

    query: Query
    payload: Any
    future: "asyncio.Future[PredictionResult]" = field(repr=False, kw_only=True)


class Coalescer:
    """Queue + one dispatcher task turning concurrent queries into batches.

    Parameters
    ----------
    evaluate:
        ``(list[Query], list[payload]) -> list[PredictionResult]``,
        executed on ``pool`` (a ``concurrent.futures`` executor) with a
        batch's queries and their payloads, index for index — must be
        safe to call from pool threads (the service hands out
        thread-local predictors).
    pool:
        The bounded worker pool batches are dispatched to.
    max_batch:
        Largest slice one dispatch drains (queue order is preserved).
    max_queue:
        Admission bound; :meth:`submit` raises
        :class:`~repro.api.errors.CapacityError` beyond it.
    metrics:
        Optional registry receiving ``serve.batch_size`` /
        ``serve.queue_depth`` / ``serve.batches``.
    """

    def __init__(
        self,
        evaluate: Callable[[list[Query], list[Any]], Sequence[PredictionResult]],
        *,
        pool: Any,
        max_batch: int = 256,
        max_queue: int = 1024,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self._evaluate = evaluate
        self._pool = pool
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.metrics = metrics
        self._queue: deque[_Pending] = deque()
        self._wakeup: asyncio.Event | None = None
        self._task: asyncio.Task[None] | None = None
        self._closing = False
        self._inflight = 0
        self.submitted = 0
        self.rejected = 0
        self.dispatched_batches = 0
        self.dispatched_queries = 0

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Spawn the dispatcher task on the running event loop."""
        if self._task is not None:
            raise RuntimeError("coalescer already started")
        self._closing = False
        self._wakeup = asyncio.Event()
        self._task = asyncio.create_task(
            self._dispatch_loop(), name="coalescer"
        )

    async def drain(self, timeout: float | None = None) -> bool:
        """Wait until queued and in-flight work is finished.

        Returns ``True`` when the queue emptied inside ``timeout``
        (``None`` = wait forever); pending futures are not cancelled
        either way — the caller decides what to do with stragglers.
        """
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        while True:
            queued = any(not p.future.done() for p in self._queue)
            if not queued and self._inflight == 0:
                return True
            if deadline is not None and loop.time() >= deadline:
                return False
            await asyncio.sleep(0.005)

    async def stop(self) -> None:
        """Reject new work, let the dispatcher exit, cancel stragglers."""
        self._closing = True
        if self._wakeup is not None:
            self._wakeup.set()
        if self._task is not None:
            await asyncio.gather(self._task, return_exceptions=True)
        self._task = None
        for pending in self._queue:
            if not pending.future.done():
                pending.future.set_exception(
                    CapacityError("service shut down before evaluation")
                )
        self._queue.clear()

    # -- admission ------------------------------------------------------------
    def submit(
        self, query: Query, payload: Any
    ) -> "asyncio.Future[PredictionResult]":
        """Enqueue one query; the returned future resolves when its batch
        has been evaluated.  ``payload`` reaches ``evaluate`` with the
        query (the service passes the sweep cell it resolved the query
        to); the coalescer does not read it.

        Raises :class:`~repro.api.errors.CapacityError` when the queue
        is full or the coalescer is shutting down.
        """
        if self._wakeup is None or self._closing:
            self.rejected += 1
            raise CapacityError("service is not accepting work (draining)")
        if len(self._queue) >= self.max_queue:
            self.rejected += 1
            if self.metrics is not None:
                self.metrics.add("serve.rejected")
            raise CapacityError(
                f"admission queue full ({self.max_queue} queries queued)",
                details={"max_queue": self.max_queue},
            )
        future: "asyncio.Future[PredictionResult]" = (
            asyncio.get_running_loop().create_future()
        )
        self._queue.append(_Pending(query, payload, future=future))
        self.submitted += 1
        if self.metrics is not None:
            self.metrics.set_gauge("serve.queue_depth", float(len(self._queue)))
        self._wakeup.set()
        return future

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- dispatch -------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._wakeup is not None
        loop = asyncio.get_running_loop()
        while True:
            await self._wakeup.wait()
            batch: list[_Pending] = []
            while self._queue and len(batch) < self.max_batch:
                pending = self._queue.popleft()
                if pending.future.done():  # deadline hit while queued
                    continue
                batch.append(pending)
            if not self._queue:
                if self._closing:
                    if batch:
                        await self._dispatch(loop, batch)
                    return
                self._wakeup.clear()
            if batch:
                await self._dispatch(loop, batch)

    async def _dispatch(
        self, loop: asyncio.AbstractEventLoop, batch: list[_Pending]
    ) -> None:
        """Evaluate one drained batch on the pool, resolving its futures."""
        if self.metrics is not None:
            self.metrics.observe("serve.batch_size", float(len(batch)))
            self.metrics.add("serve.batches")
            self.metrics.set_gauge(
                "serve.queue_depth", float(len(self._queue))
            )
        self.dispatched_batches += 1
        self.dispatched_queries += len(batch)
        self._inflight += 1
        try:
            results = await loop.run_in_executor(
                self._pool,
                self._evaluate_list,
                [p.query for p in batch],
                [p.payload for p in batch],
            )
            for pending, result in zip(batch, results):
                if not pending.future.done():
                    pending.future.set_result(result)
        except Exception as exc:  # pragma: no cover - defensive
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(exc)
        finally:
            self._inflight -= 1

    def _evaluate_list(
        self, queries: list[Query], payloads: list[Any]
    ) -> list[PredictionResult]:
        return list(self._evaluate(queries, payloads))
