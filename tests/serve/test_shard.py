"""The sharded deployment: routing, owner caches, health, aggregation.

Thread-backend deployments throughout (fast to boot, faultable); the
process backend is exercised by the CLI integration test and
``tools/serve_shard_smoke.py``.  The oracle for every answer is a direct
:meth:`repro.api.Predictor.predict` — served results must be
bit-identical to it no matter which replica answered.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import Predictor
from repro.api.errors import CapacityError, ValidationError
from repro.api.types import PredictionResult, Query
from repro.serve.client import ServeClient
from repro.serve.service import ServiceConfig
from repro.serve.shard import ShardConfig, ShardDeployment


def _queries() -> list[Query]:
    return [
        Query(workload=w, size_gb=g, config=c, num_threads=64)
        for w, g in (("gups", 16.0), ("xsbench", 32.0))
        for c in ("DRAM", "HBM", "Cache Mode")
    ]


@pytest.fixture(scope="module")
def oracle():
    return Predictor()


@pytest.fixture(scope="module")
def deployment():
    config = ShardConfig(
        replicas=2,
        backend="thread",
        service=ServiceConfig(workers=1, cache_ttl_s=None),
        probe_interval_s=0.0,  # deterministic: no background transitions
    )
    with ShardDeployment(config) as (host, port):
        yield ShardDeployment, host, port


def test_config_is_validated():
    with pytest.raises(ValidationError):
        ShardConfig(backend="fork")
    with pytest.raises(ValidationError):
        ShardConfig(replicas=0)
    with pytest.raises(ValidationError):
        ShardConfig(attempt_timeout_s=0.0)


def test_router_answers_bit_identically(deployment, oracle):
    _, host, port = deployment
    queries = _queries()
    with ServeClient(host, port, timeout=60.0) as client:
        results = client.predict_many(queries)
    assert [oracle.predict(q) for q in queries] == results


def _forwards(document) -> float:
    counters = document["service"]["counters"]
    return sum(v for k, v in counters.items() if k.startswith("router.forwards"))


def test_router_repeat_is_a_hit_in_the_owners_cache(deployment, oracle):
    """The router keeps no result cache: a repeat is forwarded to the
    ring owner of its key, whose cache answers it, and the router's
    envelope reports that hit."""
    _, host, port = deployment
    query = _queries()[0]
    with ServeClient(host, port, timeout=60.0) as client:
        client.predict(query)  # the owner now holds the answer
        before = client.metrics()
        status, envelope = client.request(
            "POST", "/v1/predict", {"query": query.to_dict()}
        )
        after = client.metrics()
    assert status == 200
    assert envelope["meta"]["cached"] == 1
    assert envelope["meta"]["computed"] == 0
    assert PredictionResult.from_dict(envelope["results"][0]) == oracle.predict(
        query
    )
    hits = [m["aggregate"]["cache"]["hits"] for m in (before, after)]
    assert hits[1] == hits[0] + 1
    assert _forwards(after) == _forwards(before) + 1.0
    assert "cache" not in after


def test_owner_cache_hit_echoes_the_query_that_was_asked(deployment, oracle):
    # 3.0 and 3.5 GB quantize to one run key, so one owner: the second
    # query is a hit in its cache on the first one's answer.
    _, host, port = deployment
    asked = [
        Query(workload="gups", size_gb=size, config="DRAM", num_threads=64)
        for size in (3.0, 3.5)
    ]
    with ServeClient(host, port, timeout=60.0) as client:
        first = client.predict(asked[0])
        before = client.metrics()["aggregate"]["cache"]["hits"]
        second = client.predict(asked[1])
        assert client.last_cached == 1
        after = client.metrics()["aggregate"]["cache"]["hits"]
    assert [first, second] == [oracle.predict(q) for q in asked]
    assert second.query.size_gb == 3.5
    assert after == before + 1


def test_healthz_reports_router_role_and_replica_states(deployment):
    _, host, port = deployment
    with ServeClient(host, port, timeout=30.0) as client:
        health = client.healthz()
        version = client.version()
    assert health["status"] == "ok"
    assert health["role"] == "router"
    assert sorted(health["routable"]) == ["r0", "r1"]
    states = {
        rid: entry["state"]
        for rid, entry in health["replica_set"]["replicas"].items()
    }
    assert states == {"r0": "up", "r1": "up"}
    assert health["replica_set"]["ring"]["replicas"] == ["r0", "r1"]
    assert version["service"] == "repro.serve.shard"
    assert version["replicas"] == 2


def test_forwards_follow_ring_assignment(oracle):
    """Key affinity end to end: every query is forwarded to exactly the
    replica the ring assigns its key to."""
    config = ShardConfig(
        replicas=2,
        backend="thread",
        service=ServiceConfig(workers=1, cache_ttl_s=None),
        probe_interval_s=0.0,
    )
    deployment = ShardDeployment(config)
    with deployment as (host, port):
        queries = _queries()
        ring = deployment.replicas.ring()
        expected: dict[str, int] = {}
        for query in queries:
            owner = ring.assign(oracle.cache_key(query))
            expected[owner] = expected.get(owner, 0) + 1
        with ServeClient(host, port, timeout=60.0) as client:
            for query in queries:
                client.predict(query)
            counters = client.metrics()["service"]["counters"]
    forwarded = {
        rid: counters.get(f"router.forwards{{replica={rid}}}", 0.0)
        for rid in ("r0", "r1")
    }
    assert forwarded == {
        rid: float(expected.get(rid, 0)) for rid in ("r0", "r1")
    }


def test_metrics_aggregate_sums_per_replica_counters(oracle):
    """Fleet totals are sums over all replicas, not a read of whichever
    replica answered last — the cross-process stats race regression.

    Drive the two replicas to *unequal* counts by talking to them
    directly, then check the router's aggregate equals the sum (and so
    matches neither individual replica)."""
    config = ShardConfig(
        replicas=2,
        backend="thread",
        service=ServiceConfig(workers=1, cache_ttl_s=None),
        probe_interval_s=0.0,
    )
    deployment = ShardDeployment(config)
    with deployment as (host, port):
        queries = _queries()
        addresses = deployment.addresses()
        loads = {"r0": queries[:4], "r1": queries[4:6]}
        for rid, batch in loads.items():
            rhost, rport = addresses[rid]
            with ServeClient(rhost, rport, timeout=60.0) as client:
                for query in batch:
                    client.predict(query)
        with ServeClient(host, port, timeout=30.0) as client:
            snapshot = client.metrics()
    per_replica = snapshot["replicas"]
    requests_key = "serve.requests{endpoint=/v1/predict,status=200}"
    individual = [
        per_replica[rid]["service"]["counters"][requests_key]
        for rid in ("r0", "r1")
    ]
    assert individual == [4.0, 2.0]
    aggregate = snapshot["aggregate"]
    assert aggregate["reachable"] == 2
    assert aggregate["service"]["counters"][requests_key] == 6.0
    executed = [
        per_replica[rid]["executor"]["executed"] for rid in ("r0", "r1")
    ]
    assert aggregate["executor"]["executed"] == sum(executed)
    assert aggregate["cache"]["misses"] == sum(
        per_replica[rid]["cache"]["misses"] for rid in ("r0", "r1")
    )
    merged_requests = snapshot["aggregate"]["service"]["histograms"][
        "serve.request_ms{endpoint=/v1/predict}"
    ]
    assert merged_requests["count"] == 6


def test_restart_bumps_generation_and_keeps_answers_identical(oracle):
    config = ShardConfig(
        replicas=2,
        backend="thread",
        service=ServiceConfig(workers=1, cache_ttl_s=None),
        probe_interval_s=0.0,
    )
    deployment = ShardDeployment(config)
    with deployment as (host, port):
        queries = _queries()
        forwards = "router.forwards{replica=r0}"
        with ServeClient(host, port, timeout=30.0) as client:
            assert client.predict(queries[0]) == oracle.predict(queries[0])
            assert deployment.replicas.generation("r0") == 0
            deployment.restart_replica("r0")
            assert deployment.replicas.generation("r0") == 1
            before = client.metrics()["service"]["counters"].get(forwards, 0.0)
            # The router keeps answering: its pooled connections to the
            # dead twin are keyed on (replica, generation) and re-dial.
            for query in queries:
                assert client.predict(query) == oracle.predict(query)
            after = client.metrics()["service"]["counters"][forwards]
    assert after > before


def test_no_routable_replicas_is_a_typed_capacity_error():
    config = ShardConfig(
        replicas=2,
        backend="thread",
        service=ServiceConfig(workers=1, cache_ttl_s=None),
        probe_interval_s=0.0,
        fail_after=1,
        attempt_timeout_s=2.0,
    )
    deployment = ShardDeployment(config)
    with deployment as (host, port):
        deployment.kill_replica("r0")
        deployment.kill_replica("r1")
        with ServeClient(host, port, timeout=30.0) as client:
            query = _queries()[0]
            with pytest.raises(CapacityError):
                client.predict(query)
            # Both replicas were charged and downed; the next request is
            # rejected up front with the same typed envelope.
            assert deployment.replicas.routable_ids() == []
            with pytest.raises(CapacityError):
                client.predict(query)
            health = client.healthz()
    assert health["status"] == "degraded"
    assert health["routable"] == []


def test_router_routes_and_fails_over(oracle):
    config = ShardConfig(
        replicas=3,
        backend="thread",
        service=ServiceConfig(workers=1, cache_ttl_s=None),
        probe_interval_s=0.0,
        fail_after=1,
    )
    deployment = ShardDeployment(config)
    with deployment as (host, port):
        queries = _queries()
        ring = deployment.replicas.ring()
        by_owner: dict[str, Query] = {}
        for query in queries:
            by_owner.setdefault(ring.assign(oracle.cache_key(query)), query)
        victim, query = next(iter(by_owner.items()))
        with ServeClient(host, port, timeout=30.0) as client:
            deployment.kill_replica(victim)
            # Failover to the ring successor, bit-identical, and the dead
            # replica is discovered passively.
            assert client.predict(query) == oracle.predict(query)
            assert deployment.replicas.info(victim).state == "down"
            assert victim not in deployment.replicas.routable_ids()


def test_concurrent_router_clients_agree_with_oracle(deployment, oracle):
    _, host, port = deployment
    queries = _queries()
    expected = [oracle.predict(q) for q in queries]
    errors: list[Exception] = []

    def loop() -> None:
        try:
            with ServeClient(host, port, timeout=60.0) as client:
                for _ in range(3):
                    assert client.predict_many(queries) == expected
        except Exception as exc:  # surfaces in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=loop) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "client thread hung"
    assert errors == []
