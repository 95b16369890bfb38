"""End-to-end wire protocol: ServerThread + ServeClient over real TCP.

One server boots per module (model evaluation dominates startup); the
tests cover the typed round trip, error-envelope rehydration, schema
negotiation, the introspection endpoints and graceful shutdown.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    DeadlineExceededError,
    Predictor,
    Query,
    QueryGrid,
    ValidationError,
)
from repro.api.types import SCHEMA_VERSION, SUPPORTED_SCHEMA_VERSIONS
from repro.serve.client import ServeClient
from repro.serve.service import ServiceConfig
from repro.serve.threadserver import ServerThread


@pytest.fixture(scope="module")
def server():
    with ServerThread(ServiceConfig()) as thread:
        yield thread


@pytest.fixture()
def client(server):
    with ServeClient(server.host, server.port) as c:
        yield c


@pytest.fixture(scope="module")
def oracle():
    return Predictor()


class TestPredict:
    def test_single_query_round_trip_is_bit_identical(self, client, oracle):
        query = Query(
            workload="minife", size_gb=7.2, config="Cache Mode", num_threads=64
        )
        assert client.predict(query) == oracle.predict(query)

    def test_predict_many_preserves_order(self, client, oracle):
        queries = [
            Query(workload="dgemm", size_gb=4.0, config=c, num_threads=t)
            for c in ("DRAM", "HBM")
            for t in (32, 64)
        ]
        results = client.predict_many(queries)
        assert results == [oracle.predict(q) for q in queries]

    def test_predict_grid_expands_workload_major(self, client, oracle):
        grid = QueryGrid(
            workloads=("xsbench",),
            sizes_gb=(2.5,),
            configs=("DRAM", "HBM", "Cache Mode"),
        )
        assert client.predict_grid(grid) == [
            oracle.predict(q) for q in grid.expand()
        ]

    def test_infeasible_cell_arrives_as_data(self, client):
        result = client.predict(
            Query(workload="gups", size_gb=32.0, config="HBM")
        )
        assert result.metric is None
        assert result.error is not None
        assert result.error.code == "infeasible_config"


class TestErrorEnvelopes:
    def test_validation_error_rehydrates(self, client):
        status, body = client.request(
            "POST", "/v1/predict", {"query": {"workload": "dgemm"}}
        )
        assert status == 400
        assert body["error"]["code"] == "validation"
        with pytest.raises(ValidationError):
            client._call("POST", "/v1/predict", {"query": {"workload": "x"}})

    def test_unsupported_schema_version(self, client):
        status, body = client.request(
            "POST",
            "/v1/predict",
            {
                "schema_version": SCHEMA_VERSION + 1,
                "query": {
                    "workload": "dgemm",
                    "size_gb": 4.0,
                    "config": "DRAM",
                },
            },
        )
        assert status == 400
        assert body["error"]["code"] == "unsupported_schema"
        assert body["error"]["details"]["supported"] == list(
            SUPPORTED_SCHEMA_VERSIONS
        )

    def test_unknown_workload_is_404(self, client):
        status, body = client.request(
            "POST",
            "/v1/predict",
            {
                "query": {
                    "workload": "linpack",
                    "size_gb": 4.0,
                    "config": "DRAM",
                }
            },
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_workload"

    def test_deadline_exceeded_is_504(self, server):
        # A fresh client so the keyed query is not already cached: the
        # 1 µs deadline must fire before the 1 ms batch window.
        with ServeClient(server.host, server.port) as client:
            with pytest.raises(DeadlineExceededError):
                client.predict(
                    Query(
                        workload="graph500", size_gb=8.0, config="Interleave"
                    ),
                    deadline_s=1e-6,
                )

    def test_unknown_route_is_404(self, client):
        status, body = client.request("GET", "/v2/predict")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_wrong_method_is_405(self, client):
        status, body = client.request("GET", "/v1/predict")
        assert status == 405

    def test_non_json_body_is_400(self, client):
        status, raw = client._round_trip(
            (
                "POST /v1/predict HTTP/1.1\r\n"
                f"Host: {client.host}:{client.port}\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: 9\r\n"
                "Connection: keep-alive\r\n"
                "\r\n"
                "not-json!"
            ).encode("latin-1")
        )
        assert status == 400
        assert json.loads(raw)["error"]["code"] == "validation"


class TestIntrospection:
    def test_healthz_reports_running(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_s"] > 0

    def test_version_carries_schema_and_machine(self, client):
        version = client.version()
        assert version["schema_version"] == SCHEMA_VERSION
        assert version["machine"] == "knl7210"

    def test_metrics_document_shape(self, client, oracle):
        query = Query(workload="dgemm", size_gb=4.0, config="DRAM")
        client.predict(query)
        client.predict(query)  # guaranteed cache hit
        snapshot = client.metrics()
        assert snapshot["cache"]["hits"] >= 1
        assert snapshot["coalescer"]["submitted"] >= 1
        assert snapshot["executor"]["batched_cells"] >= 0
        histograms = snapshot["service"]["histograms"]
        assert any(
            key.startswith("serve.request_ms") for key in histograms
        )


class TestShutdown:
    def test_graceful_stop_then_connection_refused(self):
        with ServerThread(ServiceConfig()) as thread:
            client = ServeClient(thread.host, thread.port)
            assert client.healthz()["status"] == "ok"
            client.close()
        with pytest.raises(OSError):
            ServeClient(thread.host, thread.port).healthz()
