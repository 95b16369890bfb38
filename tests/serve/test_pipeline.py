"""One request pipeline: the service and the shard router answer alike.

The same bodies go to a standalone service and to a 2-replica
thread-backend router over real TCP.  Valid predict, grid and plan
requests must produce envelopes that are field-equal except for the
timing (``meta.elapsed_ms``); invalid ones — oversized, a bad
``deadline_s``, an unknown field, or any request while the front end
drains — must fail with the same error ``code`` and HTTP status.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api.errors import ApiError
from repro.api.plan import PlanRequest, PoolEntry, TrafficItem
from repro.api.types import Query
from repro.serve.client import ServeClient
from repro.serve.registry import ReplicaSet
from repro.serve.service import PredictionService, ServiceConfig
from repro.serve.shard import ShardConfig, ShardDeployment, ShardRouter
from repro.serve.threadserver import ServerThread

SERVICE = ServiceConfig(workers=1, cache_ttl_s=None, max_request_queries=16)

QUERY = Query(workload="dgemm", size_gb=4.0, config="HBM", num_threads=64)
GRID = {
    "workloads": ["dgemm", "gups"],
    "sizes_gb": [2.0, 4.0],
    "configs": ["DRAM", "HBM"],
    "num_threads": [64],
}
PLAN = PlanRequest(
    mix=(
        TrafficItem(workload="dgemm", size_gb=4.0, num_threads=64, weight=0.001),
    ),
    pool=(PoolEntry(machine="knl7210", nodes=4),),
)

VALID = {
    "predict": ("/v1/predict", {"query": QUERY.to_dict()}),
    "grid": ("/v1/predict", {"grid": GRID}),
    "plan": ("/v1/plan", {"plan": PLAN.to_dict()}),
}
INVALID = {
    "oversized": (
        "/v1/predict", {"grid": {**GRID, "sizes_gb": [1.0, 2.0, 3.0, 4.0, 5.0]}}
    ),
    "bad-deadline": (
        "/v1/predict", {"query": QUERY.to_dict(), "deadline_s": -1}
    ),
    "deadline-not-a-number": (
        "/v1/plan", {"plan": PLAN.to_dict(), "deadline_s": "soon"}
    ),
    "unknown-field": ("/v1/predict", {"query": QUERY.to_dict(), "extra": 1}),
    "unknown-plan-field": ("/v1/plan", {"plan": PLAN.to_dict(), "extra": 1}),
}


@pytest.fixture(scope="module")
def fronts():
    """(service address, router address) serving the same config."""
    deployment = ShardDeployment(
        ShardConfig(replicas=2, service=SERVICE, probe_interval_s=0.0)
    )
    with ServerThread(SERVICE) as service, deployment as router:
        yield (service.host, service.port), router


def _send(address, path, body):
    with ServeClient(*address, timeout=60.0) as client:
        return client.request("POST", path, body)


def _without_timing(envelope):
    meta = dict(envelope["meta"])
    assert meta.pop("elapsed_ms") >= 0.0
    return {**envelope, "meta": meta}


@pytest.mark.parametrize("name", list(VALID))
def test_valid_requests_answer_identically(fronts, name):
    path, body = VALID[name]
    (status_s, service), (status_r, router) = (
        _send(address, path, body) for address in fronts
    )
    assert status_s == status_r == 200
    assert _without_timing(service) == _without_timing(router)


@pytest.mark.parametrize("name", list(INVALID))
def test_invalid_requests_fail_identically(fronts, name):
    path, body = INVALID[name]
    (status_s, service), (status_r, router) = (
        _send(address, path, body) for address in fronts
    )
    assert status_s == status_r >= 400
    assert service["error"]["code"] == router["error"]["code"]


def _error_while_draining(front, handler, body):
    """The typed error of one request issued once ``front`` drains."""

    async def scenario():
        await front.start()
        stopping = asyncio.ensure_future(front.stop())
        await asyncio.sleep(0)  # stop() has begun: the front is draining
        assert front.state == "draining"
        try:
            await getattr(front, handler)(body)
        except ApiError as exc:
            return exc
        finally:
            await stopping
        raise AssertionError("a draining front end accepted a request")

    return asyncio.run(scenario())


@pytest.mark.parametrize(
    "handler, body",
    [("handle_predict", VALID["predict"][1]), ("handle_plan", VALID["plan"][1])],
    ids=["predict", "plan"],
)
def test_draining_fronts_refuse_identically(handler, body):
    service = PredictionService(SERVICE)
    router = ShardRouter(
        ShardConfig(service=SERVICE, probe_interval_s=0.0), ReplicaSet()
    )
    from_service = _error_while_draining(service, handler, body)
    from_router = _error_while_draining(router, handler, body)
    assert from_service.code == from_router.code == "capacity"
    assert from_service.http_status == from_router.http_status == 429
