"""`/v1/plan` over real TCP: round trip, errors, negotiation, routing.

One coalescing server boots per module; the capacity paths (429 over
the candidate cap, 504 past the deadline) get their own short-lived
servers so the shared one stays deterministic.  The sharded router is
exercised with a 2-replica thread-backend deployment, and the CLI
identity test pins the acceptance criterion: ``repro plan --json`` and
``POST /v1/plan`` produce byte-identical plans for the same spec.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.api.errors import (
    CapacityError,
    DeadlineExceededError,
    InfeasiblePlanError,
    ValidationError,
)
from repro.api.facade import Predictor
from repro.api.plan import PlanRequest, PlanResult, PoolEntry, TrafficItem
from repro.api.types import SCHEMA_VERSION
from repro.cli import main as cli_main
from repro.plan import CapacityPlanner, check_plan
from repro.serve.client import ServeClient
from repro.serve.service import ServiceConfig
from repro.serve.shard import ShardConfig, ShardDeployment
from repro.serve.threadserver import ServerThread

REQUEST = PlanRequest(
    mix=(
        TrafficItem(workload="dgemm", size_gb=4.0, num_threads=64, weight=0.001),
        TrafficItem(workload="gups", size_gb=2.0, num_threads=32, weight=0.002),
    ),
    pool=(
        PoolEntry(machine="knl7210", nodes=8),
        PoolEntry(machine="xeonmax9480", nodes=8),
    ),
)


@pytest.fixture(scope="module")
def server():
    with ServerThread(ServiceConfig()) as thread:
        yield thread


@pytest.fixture()
def client(server):
    with ServeClient(server.host, server.port) as c:
        yield c


@pytest.fixture(scope="module")
def direct():
    return CapacityPlanner(Predictor()).plan(REQUEST)


class TestPlanRoundTrip:
    def test_served_plan_matches_direct_solve(self, client, direct):
        served = client.plan(REQUEST)
        assert served == direct
        assert check_plan(REQUEST, served) == []

    def test_envelope_shape_and_meta(self, client):
        status, body = client.request(
            "POST", "/v1/plan", {"plan": REQUEST.to_dict()}
        )
        assert status == 200
        assert body["schema_version"] == SCHEMA_VERSION
        assert PlanResult.from_dict(body["plan"]) is not None
        meta = body["meta"]
        assert meta["items"] == len(REQUEST.mix)
        assert meta["pool"] == len(REQUEST.pool)
        assert meta["candidates"] == REQUEST.candidate_count()
        assert meta["elapsed_ms"] >= 0

    def test_plan_metrics_counted(self, client):
        client.plan(REQUEST)
        snapshot = client.metrics()
        counters = snapshot["service"]["counters"]
        assert counters.get("serve.plans", 0) >= 1
        assert any(
            key.startswith("serve.plan_ms")
            for key in snapshot["service"]["histograms"]
        )


class TestPlanErrors:
    def test_missing_plan_field_is_400(self, client):
        status, body = client.request("POST", "/v1/plan", {"spec": {}})
        assert status == 400
        assert body["error"]["code"] == "validation"

    def test_wrong_method_is_405(self, client):
        status, _ = client.request("GET", "/v1/plan")
        assert status == 405

    def test_unknown_machine_is_404(self, client):
        spec = REQUEST.to_dict()
        spec["pool"] = [{"machine": "epyc", "nodes": 4}]
        status, body = client.request("POST", "/v1/plan", {"plan": spec})
        assert status == 404
        assert body["error"]["code"] == "unknown_machine"

    def test_empty_mix_is_400(self, client):
        spec = REQUEST.to_dict()
        spec["mix"] = []
        status, body = client.request("POST", "/v1/plan", {"plan": spec})
        assert status == 400
        assert body["error"]["code"] == "empty_mix"

    def test_infeasible_plan_rehydrates_as_409(self, client):
        overloaded = PlanRequest(
            mix=(TrafficItem(workload="dgemm", size_gb=4.0, weight=1e6),),
            pool=(PoolEntry(machine="knl7210", nodes=1),),
        )
        status, body = client.request(
            "POST", "/v1/plan", {"plan": overloaded.to_dict()}
        )
        assert status == 409
        assert body["error"]["code"] == "infeasible_plan"
        with pytest.raises(InfeasiblePlanError):
            client.plan(overloaded)

    def test_unsupported_schema_is_400(self, client):
        status, body = client.request(
            "POST",
            "/v1/plan",
            {"plan": REQUEST.to_dict(), "schema_version": SCHEMA_VERSION + 1},
        )
        assert status == 400
        assert body["error"]["code"] == "unsupported_schema"

    def test_candidate_cap_is_429(self):
        # 2 items x (2 machines x 3 configs) = 12 candidates > the cap.
        config = ServiceConfig(max_request_queries=4)
        with ServerThread(config) as thread:
            with ServeClient(thread.host, thread.port) as client:
                with pytest.raises(CapacityError) as excinfo:
                    client.plan(REQUEST)
        assert excinfo.value.details["max_request_queries"] == 4

    def test_deadline_exceeded_is_504(self):
        with ServerThread(ServiceConfig()) as thread:
            thread.service.fault_hook = lambda: time.sleep(0.5)
            with ServeClient(thread.host, thread.port) as client:
                with pytest.raises(DeadlineExceededError):
                    client.plan(REQUEST, deadline_s=0.05)


class TestSchemaNegotiation:
    def test_downlevel_client_gets_identical_plan(self, server, direct):
        with ServeClient(server.host, server.port, schema_version=1) as old:
            assert old.plan(REQUEST) == direct

    def test_unsupported_pin_rejected_client_side(self, server):
        with pytest.raises(ValidationError, match="cannot pin"):
            ServeClient(server.host, server.port, schema_version=99)


class TestRouterForwarding:
    def test_sharded_plan_matches_direct_solve(self, direct):
        config = ShardConfig(
            replicas=2,
            backend="thread",
            service=ServiceConfig(workers=1, cache_ttl_s=None),
            probe_interval_s=0.0,
        )
        with ShardDeployment(config) as (host, port):
            with ServeClient(host, port) as client:
                first = client.plan(REQUEST)
                again = client.plan(REQUEST)
                snapshot = client.metrics()
        assert first == direct
        assert again == direct
        counters = snapshot["service"]["counters"]
        assert counters.get("router.plans", 0) >= 2


class TestCliIdentity:
    def test_cli_json_matches_served_plan(self, client, direct, capsys):
        served = client.plan(REQUEST)
        code = cli_main(
            [
                "plan",
                "--mix", "dgemm:4:64:0.001",
                "--mix", "gups:2:32:0.002",
                "--pool", "knl7210:8",
                "--pool", "xeonmax9480:8",
                "--json",
            ]
        )
        assert code == 0
        printed = PlanResult.from_dict(json.loads(capsys.readouterr().out))
        assert printed == served == direct
        assert printed.to_dict() == served.to_dict()
