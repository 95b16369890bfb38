"""Closed-loop driver for the prediction service's CI smokes.

:func:`run_phase` drives one server address — a single service or a
shard router, which speak the same wire protocol — from N concurrent
keep-alive clients, one request per query, and reports throughput and
latency percentiles.  :func:`run_smoke` is the single-service CI smoke
built on it (``tools/serve_smoke.py``); ``tools/serve_shard_smoke.py``
drives a sharded deployment's router with the same loop.

The query pool is shaped like real what-if traffic: queries share a
small basis of (workload, size) profiles and fan out across memory
configs and thread counts, and their content-addressed run keys are
pairwise distinct, so no result cache can answer one query for another.

Served responses are checked bit-identical against direct scalar
:mod:`repro.api` evaluation (:func:`verify_identity`): coalescing,
caching and routing may only change *when* work happens, never the
answer.  The gated serving benchmark is ``servebench/`` at the
repository root, not this module.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.api.errors import ApiError
from repro.api.facade import Predictor
from repro.api.types import PredictionResult, Query
from repro.serve.client import ServeClient
from repro.serve.service import ServiceConfig
from repro.serve.threadserver import ServerThread

__all__ = [
    "LoadPhase",
    "SmokeFailure",
    "build_query_pool",
    "run_phase",
    "run_smoke",
    "verify_identity",
]

#: (workload, base size) profile basis — few profiles, shared by many
#: queries, exactly like a user sweeping placements for their own app.
_POOL_BASIS = (
    ("dgemm", 2.0),
    ("dgemm", 4.0),
    ("dgemm", 8.0),
    ("minife", 3.0),
    ("minife", 6.0),
    ("minife", 9.0),
    ("xsbench", 2.5),
    ("xsbench", 5.0),
)
_POOL_CONFIGS = ("DRAM", "HBM", "Cache Mode", "Interleave")
_POOL_THREADS = tuple(range(8, 257, 8))
_POOL_CYCLE = len(_POOL_BASIS) * len(_POOL_CONFIGS) * len(_POOL_THREADS)


@dataclass(frozen=True)
class LoadPhase:
    """Measured outcome of one load phase."""

    name: str
    requests: int
    errors: int
    seconds: float
    throughput_rps: float
    p50_ms: float
    p99_ms: float
    max_ms: float

    @property
    def success_rate(self) -> float:
        if not self.requests:
            return 0.0
        return (self.requests - self.errors) / self.requests

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "requests": self.requests,
            "errors": self.errors,
            "seconds": self.seconds,
            "throughput_rps": self.throughput_rps,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "max_ms": self.max_ms,
        }

    def describe(self) -> str:
        return (
            f"{self.name}: {self.requests - self.errors}/{self.requests} "
            f"requests ok in {self.seconds:.2f}s "
            f"= {self.throughput_rps:.0f} rps "
            f"(p50 {self.p50_ms:.1f} ms, p99 {self.p99_ms:.1f} ms)"
        )


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


def build_query_pool(
    count: int, *, predictor: Predictor | None = None
) -> list[Query]:
    """``count`` queries with pairwise-distinct content-addressed keys.

    The sweep walks the profile basis fastest, then configs, then thread
    counts, then (past one full cycle) shifts the size axis — so a
    prefix of the pool covers every (profile, config) pair early.
    Candidates whose size quantizes onto an already-used key (MiniFE
    rounds to a mesh dimension, XSBench to a gridpoint count) are
    skipped.
    """
    predictor = predictor if predictor is not None else Predictor()
    pool: list[Query] = []
    seen: set[str] = set()
    index = 0
    while len(pool) < count:
        workload, base_size = _POOL_BASIS[index % len(_POOL_BASIS)]
        config = _POOL_CONFIGS[(index // len(_POOL_BASIS)) % len(_POOL_CONFIGS)]
        threads = _POOL_THREADS[
            (index // (len(_POOL_BASIS) * len(_POOL_CONFIGS)))
            % len(_POOL_THREADS)
        ]
        size_gb = round(base_size + 0.37 * (index // _POOL_CYCLE), 4)
        index += 1
        query = Query(
            workload=workload,
            size_gb=size_gb,
            config=config,
            num_threads=threads,
        )
        key = predictor.cache_key(query)
        if key in seen:
            continue
        seen.add(key)
        pool.append(query)
    return pool


def _partition(queries: Sequence[Query], clients: int) -> list[list[Query]]:
    """Deal queries round-robin over ``clients`` slots."""
    partitions: list[list[Query]] = [[] for _ in range(clients)]
    for i, query in enumerate(queries):
        partitions[i % clients].append(query)
    return [p for p in partitions if p]


def run_phase(
    name: str,
    host: str,
    port: int,
    partitions: Sequence[Sequence[Query]],
    *,
    deadline_s: float = 120.0,
) -> tuple[LoadPhase, list[PredictionResult]]:
    """One closed loop: one client thread per partition, one request per
    query.  Threads connect first, then a barrier releases them all.

    A request that fails on the wire (``OSError``) or with a typed
    :class:`~repro.api.errors.ApiError` counts as an error; any other
    exception in a client thread is a driver bug and is re-raised here
    once every thread has stopped.

    Returns the phase summary plus every response (thread-major, in
    request order) for identity verification.
    """
    barrier = threading.Barrier(len(partitions) + 1)
    latencies_ms: list[list[float]] = [[] for _ in partitions]
    responses: list[list[PredictionResult]] = [[] for _ in partitions]
    errors = [0] * len(partitions)
    crashes: list[BaseException] = []

    def client_loop(slot: int, queries: Sequence[Query]) -> None:
        try:
            with ServeClient(host, port, timeout=deadline_s + 30.0) as client:
                try:
                    client.healthz()  # establish the keep-alive connection
                except (ApiError, OSError):
                    pass  # the requests below count the failure
                barrier.wait()
                for query in queries:
                    started = time.perf_counter()
                    try:
                        result = client.predict(query, deadline_s=deadline_s)
                    except (ApiError, OSError):
                        errors[slot] += 1
                        continue
                    latencies_ms[slot].append(
                        (time.perf_counter() - started) * 1e3
                    )
                    responses[slot].append(result)
        except BaseException as exc:
            crashes.append(exc)
            barrier.abort()  # release the others; the bug is raised below

    threads = [
        threading.Thread(
            target=client_loop, args=(i, partition), name=f"loadgen-{i}"
        )
        for i, partition in enumerate(partitions)
    ]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - started
    if crashes:
        raise crashes[0]
    flat = sorted(lat for bucket in latencies_ms for lat in bucket)
    requests = sum(len(p) for p in partitions)
    phase = LoadPhase(
        name=name,
        requests=requests,
        errors=sum(errors),
        seconds=seconds,
        throughput_rps=requests / seconds if seconds else 0.0,
        p50_ms=_percentile(flat, 0.50),
        p99_ms=_percentile(flat, 0.99),
        max_ms=flat[-1] if flat else 0.0,
    )
    return phase, [r for bucket in responses for r in bucket]


def verify_identity(
    responses: Sequence[PredictionResult], sample: int
) -> dict[str, Any]:
    """Served results vs direct scalar facade evaluation, bit for bit."""
    oracle = Predictor()
    step = max(1, len(responses) // sample) if responses else 1
    checked = 0
    mismatches = 0
    for response in list(responses)[::step][:sample]:
        direct = oracle.predict(response.query)
        checked += 1
        if direct != response:
            mismatches += 1
    return {
        "checked": checked,
        "mismatches": mismatches,
        "bit_identical": mismatches == 0,
    }


class SmokeFailure(Exception):
    """A failed :func:`run_smoke` check.  Raised explicitly, so the
    checks also hold under ``python -O``, which strips ``assert``."""


def run_smoke(
    *,
    clients: int = 50,
    requests_per_client: int = 4,
    workers: int = 2,
    p99_bound_ms: float = 5000.0,
    check_sample: int = 16,
) -> dict[str, Any]:
    """The CI smoke: boot, drive concurrent queries, bound p99, audit
    served results against the invariant checker.

    Raises :class:`SmokeFailure` on any failure (errors, p99 over bound,
    non-identical results, a served metric unlike the audited one); the
    invariant checker raises its own error on a violated invariant.
    """
    from repro.api.facade import sized_workload
    from repro.checks.checker import CheckingRunner
    from repro.core.configs import ConfigName

    total = clients * requests_per_client
    pool = build_query_pool(total)
    with ServerThread(ServiceConfig(workers=workers)) as server:
        phase, responses = run_phase(
            "smoke", server.host, server.port, _partition(pool, clients)
        )
        health = server.service.healthz()
    if phase.errors:
        raise SmokeFailure(f"{phase.errors} failed requests")
    if phase.requests != total:
        raise SmokeFailure(f"served {phase.requests}/{total}")
    if phase.p99_ms > p99_bound_ms:
        raise SmokeFailure(
            f"p99 {phase.p99_ms:.1f} ms over bound {p99_bound_ms:g} ms"
        )
    identity = verify_identity(responses, check_sample)
    if not identity["bit_identical"]:
        raise SmokeFailure(f"identity mismatches: {identity}")
    # Invariant audit: re-evaluate a sample under CheckingRunner(raise) —
    # it throws on any violated invariant — and pin the served metric to
    # the audited record's, bit for bit.
    checker = CheckingRunner(mode="raise")
    step = max(1, len(responses) // check_sample)
    audited = 0
    for response in responses[::step][:check_sample]:
        query = response.query
        record = checker.run(
            sized_workload(query.workload, query.size_gb),
            ConfigName(query.config),
            query.num_threads,
        )
        if record.metric != response.metric:
            raise SmokeFailure(
                f"served metric {response.metric!r} != checked "
                f"{record.metric!r} for {query}"
            )
        audited += 1
    return {
        "phase": phase.as_dict(),
        "health_after": health,
        "identity": identity,
        "invariant_audited": audited,
        "checked_runs": checker.runs_checked,
        "violations": checker.violation_count,
    }
