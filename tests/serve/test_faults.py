"""Fault-injection harness: the sharded deployment under misbehaviour.

The [test]-archetype contract of the sharding work: every scenario a
replica can inflict — crash-stop, stall, slowdown, poisoned answers,
administrative drain — ends in one of exactly two outcomes for a
caller: a **bit-identical** answer (vs direct scalar evaluation) via
failover, or a **typed** :class:`~repro.api.errors.ApiError` envelope.
Never a hang, never a malformed body, never a wrong number.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import Predictor
from repro.api.errors import (
    ApiError,
    CapacityError,
    DeadlineExceededError,
)
from repro.api.types import Query
from repro.serve.client import ServeClient
from repro.serve.faults import FaultInjector
from repro.serve.service import ServiceConfig
from repro.serve.shard import ShardConfig, ShardDeployment


def _queries() -> list[Query]:
    return [
        Query(workload=w, size_gb=g, config=c, num_threads=64)
        for w, g in (("gups", 16.0), ("xsbench", 32.0), ("minife", 24.0))
        for c in ("DRAM", "HBM", "Cache Mode")
    ]


@pytest.fixture(scope="module")
def oracle():
    return Predictor()


def _deployment(
    faults: FaultInjector, **overrides: object
) -> ShardDeployment:
    settings: dict = dict(
        replicas=3,
        backend="thread",
        service=ServiceConfig(workers=1, cache_ttl_s=None),
        probe_interval_s=0.0,  # passive detection only: deterministic
        fail_after=1,
        attempt_timeout_s=2.0,
    )
    settings.update(overrides)
    return ShardDeployment(ShardConfig(**settings), faults=faults)


def _owner_of(deployment: ShardDeployment, oracle: Predictor, query: Query) -> str:
    return deployment.replicas.ring().assign(oracle.cache_key(query))


def test_fault_injection_requires_thread_backend():
    from repro.api.errors import ValidationError

    with pytest.raises(ValidationError):
        ShardDeployment(
            ShardConfig(backend="process"), faults=FaultInjector()
        )


def test_stalled_replica_fails_over_within_attempt_budget(oracle):
    """A stall is the nastiest fault: the replica accepts the request
    and never answers.  The per-attempt budget bounds the wait, the
    ring successor answers bit-identically, and the caller never sees
    the stall at all."""
    faults = FaultInjector()
    deployment = _deployment(faults)
    try:
        host, port = deployment.start()
        query = _queries()[0]
        victim = _owner_of(deployment, oracle, query)
        faults.stall(victim)
        with ServeClient(host, port, timeout=30.0) as client:
            started = time.monotonic()
            result = client.predict(query, deadline_s=20.0)
            elapsed = time.monotonic() - started
        assert result == oracle.predict(query)
        assert elapsed < 10.0, f"failover took {elapsed:.1f}s"
        assert faults.triggered(victim) >= 1
    finally:
        deployment.stop()
    assert faults.active() == {}  # stop() released every fault


def test_stalled_replica_honors_the_request_deadline(oracle):
    """With no per-attempt budget the stall consumes the whole request
    deadline — which must then surface as a typed 504, on time."""
    faults = FaultInjector()
    deployment = _deployment(faults, attempt_timeout_s=None)
    try:
        host, port = deployment.start()
        query = _queries()[0]
        faults.stall(_owner_of(deployment, oracle, query))
        with ServeClient(host, port, timeout=30.0) as client:
            started = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                client.predict(query, deadline_s=1.5)
            elapsed = time.monotonic() - started
        assert elapsed < 8.0, f"deadline overshot: {elapsed:.1f}s"
    finally:
        deployment.stop()


def test_poisoned_replica_fails_over_and_is_quarantined(oracle):
    """A replica whose evaluations raise serves internal-error envelopes
    with live connections: callers must still get the right answer from
    the successor, and the poisoned replica must leave the ring."""
    faults = FaultInjector()
    deployment = _deployment(faults)
    try:
        host, port = deployment.start()
        query = _queries()[1]
        victim = _owner_of(deployment, oracle, query)
        faults.fail(victim)
        with ServeClient(host, port, timeout=30.0) as client:
            assert client.predict(query) == oracle.predict(query)
        assert faults.triggered(victim) >= 1
        assert deployment.replicas.info(victim).state == "down"
        assert victim not in deployment.replicas.routable_ids()
        # With the victim out of the ring, traffic flows normally.
        with ServeClient(host, port, timeout=30.0) as client:
            for q in _queries()[:4]:
                assert client.predict(q) == oracle.predict(q)
    finally:
        deployment.stop()


def test_slow_replica_stays_up_and_correct(oracle):
    faults = FaultInjector()
    deployment = _deployment(faults)
    try:
        host, port = deployment.start()
        query = _queries()[2]
        victim = _owner_of(deployment, oracle, query)
        faults.slow(victim, 0.3)
        with ServeClient(host, port, timeout=30.0) as client:
            result = client.predict(query, deadline_s=20.0)
        assert result == oracle.predict(query)
        assert deployment.replicas.info(victim).state == "up"
    finally:
        deployment.stop()


def test_drain_is_graceful_and_leaves_the_ring(oracle):
    """Draining takes the replica out of the ring immediately while its
    in-flight work completes — no caller sees an error."""
    faults = FaultInjector()
    deployment = _deployment(faults)
    try:
        host, port = deployment.start()
        queries = _queries()
        victim = _owner_of(deployment, oracle, queries[0])
        owned = [
            q for q in queries
            if _owner_of(deployment, oracle, q) == victim
        ]
        faults.slow(victim, 0.4)  # keep one request in flight mid-drain
        outcome: list[object] = []

        def in_flight() -> None:
            with ServeClient(host, port, timeout=30.0) as client:
                outcome.append(client.predict(owned[0], deadline_s=20.0))

        worker = threading.Thread(target=in_flight)
        worker.start()
        time.sleep(0.15)  # request is now inside the victim's evaluator
        deployment.drain_replica(victim)
        worker.join(timeout=30)
        assert not worker.is_alive(), "in-flight request hung across drain"
        assert outcome == [oracle.predict(owned[0])]
        assert deployment.replicas.info(victim).state == "draining"
        assert victim not in deployment.replicas.routable_ids()
        # New traffic — including the drained replica's keys — lands on
        # the survivors, still bit-identically.
        faults.clear(victim)
        with ServeClient(host, port, timeout=30.0) as client:
            for q in queries:
                assert client.predict(q) == oracle.predict(q)
    finally:
        deployment.stop()


def test_kill_under_load_never_hangs_or_corrupts(oracle):
    """The headline scenario: a replica is crash-stopped while clients
    are mid-request.  Every request either completes bit-identically
    (failover) or raises a typed ApiError — and every client thread
    terminates."""
    faults = FaultInjector()
    deployment = _deployment(faults)
    try:
        host, port = deployment.start()
        queries = _queries()
        expected = {
            oracle.cache_key(q): oracle.predict(q) for q in queries
        }
        victim = _owner_of(deployment, oracle, queries[0])
        clients = 6
        rounds = 4
        barrier = threading.Barrier(clients + 1)
        outcomes: list[list[object]] = [[] for _ in range(clients)]

        def client_loop(slot: int) -> None:
            with ServeClient(host, port, timeout=30.0) as client:
                barrier.wait()
                for _ in range(rounds):
                    for query in queries:
                        try:
                            outcomes[slot].append(
                                (query, client.predict(query, deadline_s=20.0))
                            )
                        except ApiError as exc:
                            outcomes[slot].append((query, exc))

        threads = [
            threading.Thread(target=client_loop, args=(i,), name=f"load-{i}")
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        time.sleep(0.1)  # load is in flight
        deployment.kill_replica(victim)
        for thread in threads:
            thread.join(timeout=180)
            assert not thread.is_alive(), "client thread hung after kill"

        total = succeeded = typed_errors = 0
        for bucket in outcomes:
            for query, outcome in bucket:
                total += 1
                if isinstance(outcome, ApiError):
                    typed_errors += 1
                else:
                    succeeded += 1
                    assert outcome == expected[oracle.cache_key(query)]
        assert total == clients * rounds * len(queries)
        # Failover should absorb the loss almost entirely; typed errors
        # are tolerated (a request already past its budget) but bounded.
        assert succeeded >= total * 0.9, (succeeded, typed_errors, total)
        assert deployment.replicas.info(victim).state == "down"
    finally:
        deployment.stop()


def test_stop_releases_stalled_workers():
    """Teardown with a live stall must not hang: stop() releases every
    fault before joining threads."""
    faults = FaultInjector()
    deployment = _deployment(faults, replicas=2)
    host, port = deployment.start()
    faults.stall("r0")
    faults.stall("r1")

    def fire_and_forget() -> None:
        try:
            with ServeClient(host, port, timeout=10.0) as client:
                client.predict(_queries()[0], deadline_s=5.0)
        except Exception:
            pass

    worker = threading.Thread(target=fire_and_forget)
    worker.start()
    time.sleep(0.2)
    started = time.monotonic()
    deployment.stop()
    elapsed = time.monotonic() - started
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert elapsed < 30.0, f"stop() took {elapsed:.1f}s with stalled workers"
    assert faults.active() == {}


def test_capacity_spill_keeps_overloaded_replica_healthy(oracle):
    """A 429 is the replica protecting itself, not failing: the router
    spills to the successor and must not charge the replica's health."""
    faults = FaultInjector()
    deployment = _deployment(
        faults,
        service=ServiceConfig(workers=1, cache_ttl_s=None, max_queue=1),
    )
    try:
        host, port = deployment.start()
        queries = _queries()
        victim = _owner_of(deployment, oracle, queries[0])
        faults.slow(victim, 0.5)  # wedge the queue so extra load spills
        owned = [
            q for q in queries
            if _owner_of(deployment, oracle, q) == victim
        ]
        results: list[object] = []

        def submit(query: Query) -> None:
            with ServeClient(host, port, timeout=30.0) as client:
                try:
                    results.append(client.predict(query, deadline_s=20.0))
                except CapacityError as exc:
                    results.append(exc)

        threads = [
            threading.Thread(target=submit, args=(owned[0],))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        expected = oracle.predict(owned[0])
        assert all(
            r == expected or isinstance(r, CapacityError) for r in results
        )
        assert any(r == expected for r in results)
        # Spills never mark health: the replica is still up.
        assert deployment.replicas.info(victim).state == "up"
    finally:
        deployment.stop()


@pytest.mark.parametrize(
    "damage",
    [
        lambda envelope: {k: v for k, v in envelope.items() if k != "results"},
        lambda envelope: {**envelope, "results": []},
        # The router sums its replicas' counts into its own meta.cached.
        lambda envelope: {**envelope, "meta": {**envelope["meta"], "cached": None}},
    ],
    ids=["missing-results", "short-results", "no-cached-count"],
)
def test_malformed_replica_answer_fails_over(oracle, damage):
    """A replica that answers 200 with a body that does not answer the
    request is faulty, not the request: the caller gets the successor's
    bit-identical answer and the replica is charged (here: downed)."""
    faults = FaultInjector()
    deployment = _deployment(faults)
    try:
        host, port = deployment.start()
        query = _queries()[0]
        victim = _owner_of(deployment, oracle, query)
        service = deployment.handle(victim).service
        honest = service.handle_predict

        async def malformed(payload):
            return damage(await honest(payload))

        service.handle_predict = malformed
        with ServeClient(host, port, timeout=30.0) as client:
            assert client.predict(query, deadline_s=20.0) == oracle.predict(query)
        assert deployment.replicas.info(victim).state == "down"
        assert victim not in deployment.replicas.routable_ids()
    finally:
        deployment.stop()
