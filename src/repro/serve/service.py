"""The prediction service: coalesced evaluation on a worker pool.

:class:`PredictionService` is the protocol-independent core behind the
HTTP layer (:mod:`repro.serve.http`).  The request front half — parsing,
deadlines, admission and the envelopes — is the shared
:class:`~repro.serve.pipeline.RequestPipeline`; this class supplies the
back half:

* every query is resolved against the model, in submission order, so
  the first invalid one raises its typed error before the result cache
  or anything else sees the request;
* each query is looked up in the TTL result cache, keyed by the query
  itself, and the misses go to the coalescer with their resolved cells
  under the per-request deadline, whose expiry cancels still-queued
  work; the worker evaluates those cells without resolving again (the
  executor keys each miss's run once, for the content-addressed run
  cache);
* a ``/v1/plan`` solve runs on a pool thread through that thread's
  :class:`~repro.plan.planner.CapacityPlanner`.

``workers`` sizes the evaluation pool and nothing else: the
coalescer's one dispatcher keeps a single predict batch in flight, and
the other pool threads solve plans.

Evaluation happens on pool threads through **thread-local**
:class:`~repro.api.facade.Predictor` instances, each with its own
planner on top — the batch evaluator
mutates a shared simulated-OS allocator, so predictors must never be
shared across threads; the service tracks every predictor it created
and aggregates their executor stats for ``/metrics``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from typing import TYPE_CHECKING, Any, Callable

import repro
from repro.api.envelope import success_envelope
from repro.api.facade import Predictor
from repro.api.plan import PlanRequest, PlanResult
from repro.api.types import PredictionResult, Query
from repro.plan.planner import CapacityPlanner
from repro.serve.cache import TTLCache
from repro.serve.coalescer import Coalescer
from repro.serve.config import ServiceConfig
from repro.serve.pipeline import RequestPipeline, sum_counters

if TYPE_CHECKING:
    from repro.core.executor import SweepCell

__all__ = ["ServiceConfig", "PredictionService"]


class PredictionService(RequestPipeline):
    """The coalescing what-if prediction service (protocol-independent)."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        super().__init__(self.config)
        # Resolution only — never evaluates, so event-loop-only use is
        # safe alongside the evaluating worker predictors.
        self._resolver = Predictor(machine=self.config.machine)
        self.cache: TTLCache[PredictionResult] = TTLCache(
            self.config.cache_entries, self.config.cache_ttl_s
        )
        self._tls = threading.local()
        self._predictors: list[Predictor] = []
        self._predictors_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._coalescer: Coalescer | None = None
        #: Test seam for deterministic fault injection
        #: (:mod:`repro.serve.faults`): called on the worker thread
        #: before every evaluation.  ``None`` (production) costs one
        #: attribute read per batch.
        self.fault_hook: "Callable[[], None] | None" = None

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> None:
        """Bring up the worker pool and the coalescer's dispatcher."""
        if self._state not in ("created", "stopped"):
            raise RuntimeError(f"cannot start a service in state {self._state}")
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="serve-eval"
        )
        self._coalescer = Coalescer(
            self._evaluate_batch,
            pool=self._pool,
            max_batch=self.config.max_batch,
            max_queue=self.config.max_queue,
            metrics=self.metrics,
        )
        self._coalescer.start()
        self._state = "running"
        self._started_monotonic = time.monotonic()

    async def stop(self, *, drain: bool = True) -> None:
        """Graceful shutdown: stop admitting, drain, tear down the pool.

        With ``drain=True`` (the default), queued and in-flight requests
        are given ``drain_timeout_s`` to finish before the coalescer is
        stopped; new submissions are rejected with
        :class:`~repro.api.errors.CapacityError` the moment draining
        starts.
        """
        if self._state in ("created", "stopped"):
            self._state = "stopped"
            return
        self._state = "draining"
        assert self._coalescer is not None and self._pool is not None
        if drain:
            await self._coalescer.drain(self.config.drain_timeout_s)
        await self._coalescer.stop()
        self._pool.shutdown(wait=True)
        self._pool = None
        self._state = "stopped"

    # -- evaluation (pool threads) ---------------------------------------------
    def _worker_predictor(self) -> Predictor:
        """This thread's predictor (created and tracked on first use)."""
        predictor = getattr(self._tls, "predictor", None)
        if predictor is None:
            predictor = Predictor(
                machine=self.config.machine,
                table_cache_dir=self.config.table_cache_dir,
            )
            self._tls.predictor = predictor
            with self._predictors_lock:
                self._predictors.append(predictor)
        return predictor

    def _worker_planner(self) -> CapacityPlanner:
        """This thread's planner, over this thread's predictor (created on
        first use), so options it priced serve every later plan here."""
        planner = getattr(self._tls, "planner", None)
        if planner is None:
            planner = CapacityPlanner(self._worker_predictor())
            self._tls.planner = planner
        return planner

    def _tracked_predictors(self) -> list[Predictor]:
        with self._predictors_lock:
            return list(self._predictors)

    def _evaluate_batch(
        self, queries: list[Query], cells: list[SweepCell]
    ) -> list[PredictionResult]:
        """One dense batch of already-resolved queries through this pool
        thread's predictor."""
        hook = self.fault_hook
        if hook is not None:
            hook()
        return self._worker_predictor().predict_many(queries, cells)

    # -- the back half (event loop) -------------------------------------------
    async def _answer(
        self, queries: list[Query], deadline_s: float
    ) -> tuple[list[PredictionResult], int]:
        """Resolve every query in submission order, so the first invalid
        one refuses the request before the cache or the coalescer sees
        any; then answer hits from the TTL result cache (keyed by the
        query itself) and misses through the coalescer (**each** query
        counts one hit or miss), which carries each miss's resolved cell
        to the worker."""
        cells: list[SweepCell] = [
            self._resolver.resolve(query) for query in queries
        ]
        results: list[PredictionResult | None] = [None] * len(queries)
        misses: list[int] = []
        for i, query in enumerate(queries):
            cached = self.cache.get(query)
            if cached is None:
                misses.append(i)
            else:
                results[i] = cached
        hits = len(queries) - len(misses)
        self.metrics.add("serve.cache_hits", float(hits))
        self.metrics.add("serve.cache_misses", float(len(misses)))
        if misses:
            assert self._coalescer is not None
            futures = [
                self._coalescer.submit(queries[i], cells[i]) for i in misses
            ]
            pending = f"{len(futures)} queries pending"
            # The single-query request is the hot path: skip the gather layer.
            if len(futures) == 1:
                computed = [
                    await self._within_deadline(futures[0], deadline_s, pending)
                ]
            else:
                computed = await self._within_deadline(
                    asyncio.gather(*futures), deadline_s, pending
                )
            for i, result in zip(misses, computed):
                results[i] = result
                self.cache.put(queries[i], result)
        self.metrics.set_gauge("serve.cache_hit_rate", self.cache.hit_rate)
        return results, hits  # type: ignore[return-value]

    def _plan_on_worker(self, request: PlanRequest) -> PlanResult:
        """One plan solve on a pool thread, through that thread's planner
        (so candidate evaluation shares the run/table caches every
        ``/v1/predict`` batch already warmed, and options priced by an
        earlier plan on this thread are not priced again)."""
        hook = self.fault_hook
        if hook is not None:
            hook()
        return self._worker_planner().plan(request)

    async def _solve_plan(
        self, request: PlanRequest, deadline_s: float
    ) -> PlanResult:
        assert self._pool is not None
        future = asyncio.get_running_loop().run_in_executor(
            self._pool, self._plan_on_worker, request
        )
        return await self._within_deadline(
            future, deadline_s, "plan still solving"
        )

    # -- introspection endpoints ------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        health = {
            "status": "ok" if self.running else self._state,
            "state": self._state,
            "uptime_s": self.uptime_s(),
            "queue_depth": (
                0 if self._coalescer is None else self._coalescer.queue_depth
            ),
        }
        if self.config.replica_id:
            health["replica_id"] = self.config.replica_id
        return health

    def version(self) -> dict[str, Any]:
        document = success_envelope(
            service="repro.serve",
            version=repro.__version__,
            machine=self.config.machine,
        )
        if self.config.replica_id:
            document["replica_id"] = self.config.replica_id
        return document

    def executor_stats(self) -> dict[str, Any]:
        """Aggregated sweep-executor counters across every predictor the
        service created (resolver included — it never evaluates, but its
        counters prove that)."""
        predictors = self._tracked_predictors() + [self._resolver]
        return sum_counters(asdict(p.stats()) for p in predictors)

    def metrics_snapshot(self) -> dict[str, Any]:
        """The ``/metrics`` document: service registry + cache +
        coalescer + executor counters."""
        coalescer = self._coalescer
        return success_envelope(
            service=self.metrics.as_dict(),
            cache=self.cache.stats(),
            coalescer={
                "submitted": 0 if coalescer is None else coalescer.submitted,
                "rejected": 0 if coalescer is None else coalescer.rejected,
                "batches": (
                    0 if coalescer is None else coalescer.dispatched_batches
                ),
                "batched_queries": (
                    0 if coalescer is None else coalescer.dispatched_queries
                ),
                "queue_depth": (
                    0 if coalescer is None else coalescer.queue_depth
                ),
            },
            executor=self.executor_stats(),
        )

    async def metrics_document(self) -> dict[str, Any]:
        return self.metrics_snapshot()
