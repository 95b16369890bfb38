"""Sharded multi-replica deployment of the prediction service.

One :class:`ShardDeployment` runs N independent
:class:`~repro.serve.service.PredictionService` replicas behind a
:class:`ShardRouter` that places every query on a replica by its
**content-addressed run key** over a consistent-hash ring
(:mod:`repro.serve.ring`).  Key affinity is the whole design: a key
always lands on the same replica while that replica is healthy, so each
replica's private TTL result cache becomes one shard of a fleet-wide
cache with no cross-replica coordination, and the replicas additionally
share one persistent ModelTables directory
(:mod:`repro.engine.table_cache`) so the first replica to build a
machine's tables warms every other replica's cold start.

The data plane is :class:`ShardRouter`, a single HTTP entry point
speaking the exact ``repro.serve`` wire protocol.  It is the service's
request pipeline (:class:`~repro.serve.pipeline.RequestPipeline`:
parsing, deadlines, admission, keying, envelopes) with a forwarding
back half: each request's queries are split into per-owner groups and
forwarded concurrently on a thread pool, a plan goes whole to the owner
of its canonical key.  The router keeps no result cache of its own: the
owners' caches answer repeats, and the router reports the sum of their
``meta.cached``.

The router fails over through one loop, :func:`failover`, along the
ring's preference order.  Its semantics (proved by
``tests/serve/test_faults.py``):

* deterministic request errors (validation, unknown workload,
  deadline, the planning taxonomy) are **never** retried — they are
  properties of the request, not the replica;
* transport failures, poisoned answers and malformed answers fail over
  to the next ring preference and charge the replica's health streak
  (:class:`~repro.serve.registry.ReplicaSet`);
* :class:`~repro.api.errors.CapacityError` (a 429) spills to the next
  preference *without* a health penalty — the replica is alive, just
  full — so a hotspot overflows onto the fleet instead of failing;
* every request either completes with the bit-identical answer
  (:meth:`~repro.api.facade.Predictor.predict` is the oracle) or
  surfaces a typed :mod:`repro.api.errors` error — never a hang, never
  a malformed envelope.

Replica backends: ``thread`` (a :class:`~repro.serve.threadserver.ServerThread`
per replica in this process — what the tests and the fault harness use,
since a :class:`~repro.serve.faults.FaultInjector` can reach in-process
hooks) and ``process`` (one ``repro serve`` subprocess per replica —
what ``repro serve --replicas N`` runs; kill is a real SIGKILL).
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence, TypeVar

import repro
from repro.api.envelope import success_envelope
from repro.api.errors import (
    ApiError,
    CapacityError,
    DeadlineExceededError,
    InfeasibleConfigError,
    PlanError,
    UnknownWorkloadError,
    ValidationError,
)
from repro.api.plan import PlanRequest, PlanResult
from repro.api.types import PredictionResult, Query
from repro.obs.metrics import MetricsRegistry, merge_exports
from repro.serve.client import ServeClient
from repro.serve.faults import FaultInjector
from repro.serve.registry import ReplicaSet
from repro.serve.pipeline import RequestPipeline, sum_counters
from repro.serve.ring import HashRing
from repro.serve.service import PredictionService, ServiceConfig
from repro.serve.threadserver import ServerThread

__all__ = [
    "ShardConfig",
    "ShardRouter",
    "ShardDeployment",
    "ThreadReplica",
    "ProcessReplica",
]

#: Errors that are properties of the *request* (or of the global
#: deadline), not of the replica that reported them — retrying them on
#: another replica would only re-derive the same answer.
_FATAL_ERRORS = (
    ValidationError,
    UnknownWorkloadError,
    InfeasibleConfigError,
    DeadlineExceededError,
    # The whole planning taxonomy (empty mix, unknown machine,
    # infeasible plan): deterministic functions of the spec.
    PlanError,
)

#: What tearing down a router thread or a replica can raise: a loop
#: that is already gone, a process that will not die in time.
_TEARDOWN_ERRORS = (RuntimeError, OSError, subprocess.TimeoutExpired)

T = TypeVar("T")

#: Router forwarding pool size (each in-flight replica group holds one
#: thread for the duration of its round trip).
_ROUTER_WORKERS = 8


@dataclass(frozen=True)
class ShardConfig:
    """Shape and behaviour of one sharded deployment."""

    #: Number of replicas to boot.
    replicas: int = 2
    #: ``thread`` (in-process ServerThreads; supports fault injection)
    #: or ``process`` (one ``repro serve`` subprocess per replica).
    backend: str = "thread"
    #: Per-replica service configuration (every replica gets a copy with
    #: its own ``replica_id``).  Unless it names a ``table_cache_dir``,
    #: the replicas share one temporary table-cache directory.
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: Router bind address (port 0 = ephemeral).
    host: str = "127.0.0.1"
    port: int = 0
    #: Consecutive forwarding failures before a replica is marked down.
    fail_after: int = 2
    #: Active ``/healthz`` probe period; ``0`` disables active probing
    #: (passive failure detection still runs).
    probe_interval_s: float = 0.5
    #: Maximum replicas tried per group (ring preference order).
    max_attempts: int = 3
    #: Per-attempt time budget; ``None`` spends the full remaining
    #: request deadline on the first replica (no failover on stalls).
    attempt_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.backend not in ("thread", "process"):
            raise ValidationError(
                f"backend must be 'thread' or 'process', got {self.backend!r}"
            )
        for name in ("replicas", "fail_after", "max_attempts"):
            if getattr(self, name) < 1:
                raise ValidationError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.probe_interval_s < 0:
            raise ValidationError(
                f"probe_interval_s must be >= 0, got {self.probe_interval_s}"
            )
        if self.attempt_timeout_s is not None and self.attempt_timeout_s <= 0:
            raise ValidationError(
                f"attempt_timeout_s must be positive or None, got "
                f"{self.attempt_timeout_s}"
            )


class ReplicaConnections:
    """One owner thread's clients to the members of a replica set.

    Generation-keyed, so a restarted replica never inherits a socket to
    its dead twin.  Not thread-safe: the router keeps one per pool
    thread.  :func:`failover` sets a client's timeout before each use.
    """

    def __init__(self, replicas: ReplicaSet) -> None:
        self.replicas = replicas
        self._clients: dict[str, tuple[int, ServeClient]] = {}

    def get(self, replica_id: str) -> ServeClient:
        """The client to ``replica_id`` (``KeyError`` once deregistered)."""
        generation = self.replicas.generation(replica_id)
        entry = self._clients.get(replica_id)
        if entry is None or entry[0] != generation:
            if entry is not None:
                entry[1].close()
            host, port = self.replicas.address(replica_id)
            entry = (generation, ServeClient(host, port))
            self._clients[replica_id] = entry
        return entry[1]

    def drop(self, replica_id: str) -> None:
        entry = self._clients.pop(replica_id, None)
        if entry is not None:
            entry[1].close()

    def close(self) -> None:
        for _, client in self._clients.values():
            client.close()
        self._clients.clear()


def failover(
    connections: ReplicaConnections,
    preferences: Sequence[str],
    call: Callable[..., T],
    argument: Any,
    *,
    deadline_at: float,
    attempt_timeout_s: float | None = None,
    metrics: MetricsRegistry | None = None,
) -> T:
    """``call(client, argument, deadline_s=...)`` on the first replica of
    ``preferences`` that answers — the router's one failover loop.

    Request-side errors (:data:`_FATAL_ERRORS`) are re-raised at once; a
    :class:`~repro.api.errors.CapacityError` spills to the next replica
    without a health mark; a transport error or a malformed or poisoned
    answer (``OSError``/``ApiError``) drops the connection, charges the
    replica's health and fails over.  Each attempt gets the budget left
    until ``deadline_at`` (a ``time.monotonic()`` instant), capped at
    ``attempt_timeout_s``, and expiry is a 504.  ``metrics``
    (the router's registry) counts ``router.*`` events per replica.
    """

    def count(name: str, replica_id: str | None = None) -> None:
        if metrics is not None:
            labels = None if replica_id is None else {"replica": replica_id}
            metrics.add(f"router.{name}", labels=labels)

    replicas = connections.replicas
    last_error: Exception | None = None
    for replica_id in preferences:
        remaining = deadline_at - time.monotonic()
        if remaining <= 0:
            break
        try:
            client = connections.get(replica_id)
        except KeyError:  # deregistered while we routed
            continue
        if attempt_timeout_s is None:
            client.set_timeout(remaining + 0.5)
        else:
            client.set_timeout(min(remaining, attempt_timeout_s) + 0.5)
        try:
            answer = call(client, argument, deadline_s=remaining)
        except _FATAL_ERRORS:
            raise
        except CapacityError as exc:
            last_error = exc
            count("replica_busy", replica_id)
            continue
        except (OSError, ApiError) as exc:
            last_error = exc
            connections.drop(replica_id)
            replicas.mark_failure(replica_id)
            count("failovers", replica_id)
            continue
        replicas.mark_success(replica_id)
        count("forwards", replica_id)
        return answer
    if time.monotonic() >= deadline_at:
        count("deadline_exceeded")
        raise DeadlineExceededError(
            f"deadline exceeded while failing over (tried {list(preferences)})",
        ) from last_error
    if isinstance(last_error, ApiError):
        raise last_error
    count("rejected")
    raise CapacityError(
        f"no replica answered (tried {list(preferences)})",
    ) from last_error


def _predict_counting_cached(
    client: ServeClient, queries: list[Query], *, deadline_s: float
) -> tuple[list[PredictionResult], int]:
    """:meth:`ServeClient.predict_many`, plus how many of the answers the
    replica served from its result cache."""
    results = client.predict_many(queries, deadline_s=deadline_s)
    return results, client.last_cached


class ShardRouter(RequestPipeline):
    """Routing front end with the PredictionService protocol surface.

    Shares the service's request pipeline and duck-types the rest of
    what :class:`~repro.serve.http.HttpServer` and
    :class:`~repro.serve.threadserver.ServerThread` need — async
    ``start``/``stop`` and ``healthz``/``version``/``metrics_document``
    — so the whole HTTP layer is reused unchanged.  Its back half
    forwards: queries go to their ring owners, a plan to the owner of
    its canonical key.
    """

    _prefix = "router"
    _role = "router"
    # Let a replica's own 504 arrive before the router gives up.
    _deadline_grace_s = 1.0
    _deadline_where = " at the router"
    _plan_histogram = None

    def __init__(self, config: ShardConfig, replicas: ReplicaSet) -> None:
        super().__init__(config.service)
        self.config = config
        self.replicas = replicas
        self._pool: ThreadPoolExecutor | None = None
        self._probe_task: asyncio.Task[None] | None = None
        self._tls = threading.local()
        self._connection_sets: list[ReplicaConnections] = []
        self._connections_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> None:
        if self._state not in ("created", "stopped"):
            raise RuntimeError(f"cannot start a router in state {self._state}")
        self._pool = ThreadPoolExecutor(
            max_workers=_ROUTER_WORKERS, thread_name_prefix="shard-route"
        )
        self._state = "running"
        self._started_monotonic = time.monotonic()
        if self.config.probe_interval_s > 0:
            self._probe_task = asyncio.get_running_loop().create_task(
                self._probe_loop()
            )

    async def stop(self, *, drain: bool = True) -> None:
        if self._state in ("created", "stopped"):
            self._state = "stopped"
            return
        self._state = "draining"
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
            self._probe_task = None
        pool = self._pool
        if pool is not None:
            # drain=True waits for in-flight forwards to finish their
            # round trips; drain=False abandons them (their sockets die
            # with the replicas).
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: pool.shutdown(wait=drain)
            )
            self._pool = None
        with self._connections_lock:
            sets, self._connection_sets = self._connection_sets, []
        for connections in sets:
            connections.close()
        self._state = "stopped"

    # -- health probing ---------------------------------------------------------
    async def _probe_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.probe_interval_s)
            pool = self._pool
            if pool is None:
                return
            for replica_id in self.replicas.ids():
                try:
                    healthy = await loop.run_in_executor(
                        pool, self._probe_one, replica_id
                    )
                except RuntimeError:  # pool shut down mid-probe
                    return
                self.replicas.mark_probe(replica_id, healthy)
                self.metrics.add("router.probes")

    def _probe_one(self, replica_id: str) -> bool:
        try:
            host, port = self.replicas.address(replica_id)
        except KeyError:
            return False
        timeout = max(0.25, min(2.0, self.config.probe_interval_s * 2))
        try:
            with ServeClient(host, port, timeout=timeout) as client:
                return client.healthz().get("status") == "ok"
        except (OSError, ApiError):
            return False

    # -- forwarding (pool threads) ----------------------------------------------
    def _forward(
        self,
        preferences: Sequence[str],
        call: Callable[..., T],
        argument: Any,
        deadline_at: float,
    ) -> T:
        """One forward with failover over this pool thread's
        connections."""
        connections = getattr(self._tls, "connections", None)
        if connections is None:
            connections = self._tls.connections = ReplicaConnections(
                self.replicas
            )
            with self._connections_lock:
                self._connection_sets.append(connections)
        return failover(
            connections,
            preferences,
            call,
            argument,
            deadline_at=deadline_at,
            attempt_timeout_s=self.config.attempt_timeout_s,
            metrics=self.metrics,
        )

    def _routable_ring(self) -> HashRing:
        ring = self.replicas.ring()
        if not len(ring):
            self.metrics.add("router.rejected")
            raise CapacityError(
                "no routable replicas (all down or draining)",
                details={"replicas": self.replicas.as_dict()["replicas"]},
            )
        return ring

    # -- the back half (event loop) -------------------------------------------
    async def _answer(
        self, queries: list[Query], keys: list[str], deadline_s: float
    ) -> tuple[list[PredictionResult], int]:
        """Group queries by ring owner, forward the groups concurrently,
        scatter the answers back into submission order; the cached count
        is the sum of the owners' counts."""
        ring = self._routable_ring()
        groups: dict[str, list[int]] = {}
        for index, key in enumerate(keys):
            groups.setdefault(ring.assign(key), []).append(index)
        deadline_at = time.monotonic() + deadline_s
        loop = asyncio.get_running_loop()
        forwards = [
            loop.run_in_executor(
                self._pool,
                self._forward,
                ring.preferences(keys[indices[0]], self.config.max_attempts),
                _predict_counting_cached,
                [queries[i] for i in indices],
                deadline_at,
            )
            for indices in groups.values()
        ]
        answered = await self._within_deadline(
            asyncio.gather(*forwards),
            deadline_s,
            f"{len(queries)} queries pending",
        )
        results: list[PredictionResult | None] = [None] * len(queries)
        for indices, (group_results, _) in zip(groups.values(), answered):
            for index, result in zip(indices, group_results):
                results[index] = result
        cached = sum(group_cached for _, group_cached in answered)
        return results, cached  # type: ignore[return-value]

    async def _solve_plan(
        self, request: PlanRequest, deadline_s: float
    ) -> PlanResult:
        """Forward the whole solve to one replica, chosen by the
        request's canonical key so repeated identical specs keep landing
        where the candidate evaluations are already cached."""
        preferences = self._routable_ring().preferences(
            request.canonical_key(), self.config.max_attempts
        )
        future = asyncio.get_running_loop().run_in_executor(
            self._pool,
            self._forward,
            preferences,
            ServeClient.plan,
            request,
            time.monotonic() + deadline_s,
        )
        return await self._within_deadline(
            future, deadline_s, "plan still solving"
        )

    # -- introspection endpoints ------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        routable = self.replicas.routable_ids()
        status = "ok" if self.running else self._state
        if self.running and not routable:
            status = "degraded"
        return {
            "status": status,
            "state": self._state,
            "role": "router",
            "uptime_s": self.uptime_s(),
            "routable": routable,
            "replica_set": self.replicas.as_dict(),
        }

    def version(self) -> dict[str, Any]:
        return success_envelope(
            service="repro.serve.shard",
            version=repro.__version__,
            machine=self.config.service.machine,
            replicas=len(self.replicas.ids()),
        )

    def _fetch_replica_metrics(self, replica_id: str) -> dict[str, Any]:
        host, port = self.replicas.address(replica_id)
        with ServeClient(host, port, timeout=5.0) as client:
            return client.metrics()

    async def metrics_document(self) -> dict[str, Any]:
        """The ``/metrics`` document: router registry + per-replica
        snapshots + the cross-replica aggregate.

        Each replica counts its own events exactly once, so fleet totals
        are **sums over snapshots taken in this single pass** — never a
        read of one replica's registry (the stats race this design
        fixes: see :func:`repro.obs.metrics.merge_exports`).
        """
        pool = self._pool
        loop = asyncio.get_running_loop()

        async def fetch(replica_id: str) -> tuple[str, dict[str, Any]]:
            if pool is None:
                return replica_id, {"error": "router stopped"}
            try:
                snapshot = await loop.run_in_executor(
                    pool, self._fetch_replica_metrics, replica_id
                )
            except (KeyError, OSError, ApiError) as exc:
                return replica_id, {
                    "error": f"{type(exc).__name__}: {exc}"
                }
            return replica_id, snapshot

        pairs = await asyncio.gather(
            *(fetch(rid) for rid in self.replicas.ids())
        )
        per_replica = dict(pairs)
        reachable = [s for s in per_replica.values() if "error" not in s]
        return success_envelope(
            service=self.metrics.as_dict(),
            replica_set=self.replicas.as_dict(),
            replicas=per_replica,
            aggregate={
                "service": merge_exports(
                    s.get("service", {}) for s in reachable
                ),
                "executor": sum_counters(
                    s.get("executor", {}) for s in reachable
                ),
                "cache": sum_counters(
                    (s.get("cache", {}) for s in reachable), skip=("ttl_s",)
                ),
                "reachable": len(reachable),
            },
        )


class ThreadReplica:
    """One in-process replica: a PredictionService on a ServerThread.

    The test backend — a :class:`~repro.serve.faults.FaultInjector` can
    reach the service's evaluation hook, and :meth:`kill` aborts the
    listener and every connection exactly like a SIGKILL looks from
    outside.
    """

    backend = "thread"

    def __init__(
        self,
        replica_id: str,
        config: ServiceConfig,
        *,
        faults: FaultInjector | None = None,
    ) -> None:
        self.replica_id = replica_id
        self.service = PredictionService(config)
        if faults is not None:
            self.service.fault_hook = faults.hook_for(replica_id)
        self.thread = ServerThread(service=self.service)

    def start(self) -> tuple[str, int]:
        return self.thread.start()

    def stop(self, *, drain: bool = True) -> None:
        self.thread.stop(drain=drain)

    def kill(self) -> None:
        self.thread.kill()


class ProcessReplica:
    """One out-of-process replica: a ``repro serve`` subprocess.

    The production-shaped backend behind ``repro serve --replicas N``:
    the child binds an ephemeral port and reports it through
    ``--port-file``; :meth:`kill` is a real ``SIGKILL``, :meth:`stop`
    a ``SIGINT`` (the CLI's graceful drain path).
    """

    backend = "process"

    def __init__(self, replica_id: str, config: ServiceConfig) -> None:
        self.replica_id = replica_id
        self.config = config
        self.proc: subprocess.Popen[bytes] | None = None
        self._port_dir: str | None = None

    def _argv(self, port_file: str) -> list[str]:
        cfg = self.config
        argv = [sys.executable, "-m", "repro"]
        if cfg.table_cache_dir:
            argv += ["--table-cache", cfg.table_cache_dir]
        argv += [
            "serve",
            "--host", "127.0.0.1",
            "--port", "0",
            "--port-file", port_file,
            "--replica-id", self.replica_id,
            "--machine", cfg.machine,
            "--workers", str(cfg.workers),
            "--max-batch", str(cfg.max_batch),
            "--max-queue", str(cfg.max_queue),
            "--cache-entries", str(cfg.cache_entries),
            "--cache-ttl",
            "0" if cfg.cache_ttl_s is None else str(cfg.cache_ttl_s),
            "--deadline", str(cfg.default_deadline_s),
        ]
        return argv

    def start(self, *, timeout_s: float = 90.0) -> tuple[str, int]:
        if self.proc is not None:
            raise RuntimeError(f"replica {self.replica_id} already started")
        self._port_dir = tempfile.mkdtemp(
            prefix=f"repro-shard-{self.replica_id}-"
        )
        port_file = os.path.join(self._port_dir, "address")
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        self.proc = subprocess.Popen(
            self._argv(port_file),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"replica {self.replica_id} exited with code "
                    f"{self.proc.returncode} during startup"
                )
            try:
                text = open(port_file, encoding="utf-8").read()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):  # the CLI writes "host port\n" atomically
                host, port = text.split()
                return host, int(port)
            time.sleep(0.02)
        raise RuntimeError(
            f"replica {self.replica_id} did not report a port within "
            f"{timeout_s:g}s"
        )

    def stop(self, *, drain: bool = True) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT if drain else signal.SIGTERM)
            try:
                proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)
        self._cleanup()

    def kill(self) -> None:
        proc = self.proc
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)

    def _cleanup(self) -> None:
        if self._port_dir is not None:
            shutil.rmtree(self._port_dir, ignore_errors=True)
            self._port_dir = None


class ShardDeployment:
    """Boot, route to, fault, and tear down a replica fleet.

    The one-stop harness: ``with ShardDeployment(cfg) as (host, port):``
    boots N replicas plus the router front end and yields the router's
    address (the standard :class:`~repro.serve.client.ServeClient`
    talks to it unmodified).  :meth:`kill_replica`,
    :meth:`drain_replica` and :meth:`restart_replica` are the fault
    harness's verbs; :meth:`stop` releases any injected faults first so
    stalled worker threads can never block interpreter exit.
    """

    def __init__(
        self,
        config: ShardConfig | None = None,
        *,
        faults: FaultInjector | None = None,
    ) -> None:
        self.config = config if config is not None else ShardConfig()
        if faults is not None and self.config.backend != "thread":
            raise ValidationError(
                "fault injection requires the 'thread' backend (hooks are "
                "in-process)"
            )
        self.faults = faults
        self.replicas = ReplicaSet(fail_after=self.config.fail_after)
        self.router = ShardRouter(self.config, self.replicas)
        self._router_thread = ServerThread(
            service=self.router, host=self.config.host, port=self.config.port
        )
        self._handles: dict[str, ThreadReplica | ProcessReplica] = {}
        self._tmp_table_dir: tempfile.TemporaryDirectory[str] | None = None
        self._service_config: ServiceConfig | None = None

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Boot every replica and the router; returns the router
        address."""
        if self._handles:
            raise RuntimeError("deployment already started")
        service_config = self.config.service
        if service_config.table_cache_dir is None:
            # One persistent-table directory for the whole fleet: the
            # first replica to build a machine's tables warms the rest.
            self._tmp_table_dir = tempfile.TemporaryDirectory(
                prefix="repro-shard-tables-"
            )
            service_config = replace(
                service_config, table_cache_dir=self._tmp_table_dir.name
            )
        self._service_config = service_config
        for index in range(self.config.replicas):
            self._boot_replica(f"r{index}")
        return self._router_thread.start()

    def _boot_replica(self, replica_id: str) -> None:
        assert self._service_config is not None
        config = replace(self._service_config, replica_id=replica_id)
        handle: ThreadReplica | ProcessReplica
        if self.config.backend == "thread":
            handle = ThreadReplica(replica_id, config, faults=self.faults)
        else:
            handle = ProcessReplica(replica_id, config)
        host, port = handle.start()
        self._handles[replica_id] = handle
        self.replicas.register(replica_id, host, port)

    def stop(self) -> None:
        """Tear everything down (safe to call twice, or after kills)."""
        if self.faults is not None:
            self.faults.release_all()
        try:
            self._router_thread.stop()
        except _TEARDOWN_ERRORS:
            pass
        for handle in self._handles.values():
            try:
                handle.stop(drain=False)
            except _TEARDOWN_ERRORS:
                pass
        self._handles.clear()
        if self._tmp_table_dir is not None:
            self._tmp_table_dir.cleanup()
            self._tmp_table_dir = None

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- addresses --------------------------------------------------------------
    @property
    def router_address(self) -> tuple[str, int]:
        return self._router_thread.host, self._router_thread.port

    def addresses(self) -> dict[str, tuple[str, int]]:
        return {rid: self.replicas.address(rid) for rid in self.replicas.ids()}

    def handle(self, replica_id: str) -> ThreadReplica | ProcessReplica:
        return self._handles[replica_id]

    # -- fault-harness verbs ------------------------------------------------------
    def kill_replica(self, replica_id: str) -> None:
        """Crash-stop a replica (connections reset mid-flight).

        Deliberately does *not* touch the registry: discovering the
        death — passively through forwarding failures or actively
        through the probe loop — is exactly the behaviour under test.
        """
        self._handles[replica_id].kill()

    def drain_replica(self, replica_id: str) -> None:
        """Administratively drain: out of the ring immediately, then a
        graceful in-flight-respecting shutdown."""
        self.replicas.start_drain(replica_id)
        self._handles[replica_id].stop(drain=True)

    def restart_replica(self, replica_id: str) -> tuple[str, int]:
        """Boot a fresh instance under the same id (generation bumps, so
        pooled connections to the dead twin are discarded)."""
        handle = self._handles.pop(replica_id, None)
        if handle is not None:
            try:
                handle.kill()
            except _TEARDOWN_ERRORS:
                pass
        self._boot_replica(replica_id)
        return self.replicas.address(replica_id)
