"""The prediction service: lifecycle, coalescing identity, deadlines,
backpressure, request parsing and the metrics snapshot.

The service is driven directly (no HTTP) on private event loops; the
acceptance property — every served answer bit-identical to a direct
scalar ``repro.api`` evaluation — is asserted with full
``PredictionResult`` equality.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.api import (
    CapacityError,
    DeadlineExceededError,
    Predictor,
    Query,
    SchemaVersionError,
    ValidationError,
)
from repro.api.types import SCHEMA_VERSION, PredictionResult
from repro.serve.service import PredictionService, ServiceConfig


def run_service(coro_factory, config=None):
    """Boot a service, run ``coro_factory(service)``, stop, return value."""

    async def scenario():
        service = PredictionService(config)
        await service.start()
        try:
            return await coro_factory(service)
        finally:
            await service.stop()

    return asyncio.run(scenario())


QUERIES = [
    Query(workload=w, size_gb=s, config=c, num_threads=t)
    for w, s in (("dgemm", 4.0), ("xsbench", 2.5))
    for c in ("DRAM", "HBM")
    for t in (32, 64)
]


class TestLifecycle:
    def test_state_progression(self):
        async def scenario():
            service = PredictionService()
            assert service.state == "created"
            assert not service.running
            await service.start()
            assert service.state == "running"
            assert service.healthz()["status"] == "ok"
            await service.stop()
            assert service.state == "stopped"
            assert service.healthz()["status"] == "stopped"

        asyncio.run(scenario())

    def test_double_start_rejected(self):
        async def scenario():
            service = PredictionService()
            await service.start()
            with pytest.raises(RuntimeError):
                await service.start()
            await service.stop()

        asyncio.run(scenario())

    def test_stopped_service_refuses_requests(self):
        async def scenario():
            service = PredictionService()
            await service.start()
            await service.stop()
            with pytest.raises(CapacityError):
                await service.handle_predict(
                    {"query": QUERIES[0].to_dict()}
                )

        asyncio.run(scenario())

    def test_restart_after_stop(self):
        async def scenario():
            service = PredictionService()
            await service.start()
            await service.stop()
            await service.start()
            envelope = await service.handle_predict(
                {"query": QUERIES[0].to_dict()}
            )
            await service.stop()
            return envelope

        envelope = asyncio.run(scenario())
        assert envelope["meta"]["queries"] == 1


class TestCoalescingIdentity:
    def test_concurrent_singles_match_direct_scalar_evaluation(self):
        # N concurrent single-query requests coalesce into dense batches;
        # each answer must equal the scalar facade's, bit for bit.
        async def scenario(service):
            return await asyncio.gather(
                *[
                    service.handle_predict({"query": q.to_dict()})
                    for q in QUERIES
                ]
            )

        envelopes = run_service(scenario)
        oracle = Predictor()
        for query, envelope in zip(QUERIES, envelopes):
            served = envelope["results"][0]
            assert served == oracle.predict(query).to_dict()

    def test_grid_request_matches_expanded_singles(self):
        grid = {
            "workloads": ["dgemm"],
            "sizes_gb": [2.0, 4.0],
            "configs": ["DRAM", "HBM"],
            "num_threads": [64],
        }

        async def scenario(service):
            return await service.handle_predict({"grid": grid})

        envelope = run_service(scenario)
        oracle = Predictor()
        expected = [
            oracle.predict(
                Query(workload="dgemm", size_gb=s, config=c, num_threads=64)
            ).to_dict()
            for s in (2.0, 4.0)
            for c in ("DRAM", "HBM")
        ]
        assert envelope["results"] == expected

    def test_infeasible_cell_serializes_as_error_info(self):
        async def scenario(service):
            return await service.handle_predict(
                {
                    "query": Query(
                        workload="gups", size_gb=32.0, config="HBM"
                    ).to_dict()
                }
            )

        envelope = run_service(scenario)
        (result,) = envelope["results"]
        assert result["metric"] is None
        assert result["error"]["code"] == "infeasible_config"

    def test_cache_hits_answer_identically(self):
        query = QUERIES[0]

        async def scenario(service):
            first = await service.handle_predict({"query": query.to_dict()})
            second = await service.handle_predict({"query": query.to_dict()})
            return first, second

        first, second = run_service(scenario)
        assert first["meta"]["cached"] == 0
        assert second["meta"]["cached"] == 1
        assert first["results"] == second["results"]

    def test_cache_hit_echoes_the_query_that_was_asked(self):
        # 3.0 and 3.5 GB quantize to one run key, so the second request
        # is a cache hit on the first one's answer.
        asked = [
            Query(workload="gups", size_gb=size, config="DRAM", num_threads=64)
            for size in (3.0, 3.5)
        ]

        async def scenario(service):
            return [
                await service.handle_predict({"query": q.to_dict()})
                for q in asked
            ]

        envelopes = run_service(scenario)
        assert [e["meta"]["cached"] for e in envelopes] == [0, 1]
        oracle = Predictor()
        for query, envelope in zip(asked, envelopes):
            (result,) = envelope["results"]
            assert PredictionResult.from_dict(result) == oracle.predict(query)


class TestWorkerPlanners:
    def test_each_worker_thread_keeps_one_planner_on_its_predictor(self):
        service = PredictionService()
        planner = service._worker_planner()
        assert service._worker_planner() is planner
        assert planner.predictor is service._worker_predictor()
        theirs = []
        thread = threading.Thread(
            target=lambda: theirs.append(service._worker_planner())
        )
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        (other,) = theirs
        assert other is not planner
        assert other.predictor is not planner.predictor


class TestDeadlinesAndBackpressure:
    def test_deadline_exceeded_while_queued(self):
        # The one worker is held inside an evaluation, so the second
        # request's query is still queued when its 1 ms deadline fires.
        release = threading.Event()
        held = threading.Event()

        def hold() -> None:
            held.set()
            release.wait(timeout=10.0)

        async def scenario(service):
            service.fault_hook = hold
            blocker = asyncio.ensure_future(
                service.handle_predict({"query": QUERIES[1].to_dict()})
            )
            assert await asyncio.to_thread(held.wait, 10.0)
            try:
                with pytest.raises(DeadlineExceededError):
                    await service.handle_predict(
                        {"query": QUERIES[0].to_dict(), "deadline_s": 0.001}
                    )
            finally:
                release.set()
            await blocker
            return service.metrics_snapshot()

        snapshot = run_service(scenario, ServiceConfig(workers=1))
        counters = snapshot["service"]["counters"]
        assert counters.get("serve.deadline_exceeded") == 1.0

    def test_oversized_request_rejected_up_front(self):
        async def scenario(service):
            with pytest.raises(CapacityError):
                await service.handle_predict(
                    {
                        "grid": {
                            "workloads": ["dgemm"],
                            "sizes_gb": [float(s) for s in range(1, 6)],
                            "configs": ["DRAM"],
                        }
                    }
                )

        run_service(scenario, ServiceConfig(max_request_queries=4))

    def test_full_queue_rejects_with_capacity_error(self):
        async def scenario(service):
            # Fill the admission queue synchronously (no await), then
            # one more submission must bounce.
            futures = [
                service._coalescer.submit(q, f"k{i}")
                for i, q in enumerate(QUERIES[:2])
            ]
            with pytest.raises(CapacityError):
                service._coalescer.submit(QUERIES[2], "overflow")
            await asyncio.gather(*futures)

        run_service(scenario, ServiceConfig(max_queue=2))


class TestRequestParsing:
    def test_exactly_one_form_required(self):
        q = QUERIES[0].to_dict()
        with pytest.raises(ValidationError, match="exactly one"):
            PredictionService.parse_queries({})
        with pytest.raises(ValidationError, match="exactly one"):
            PredictionService.parse_queries(
                {"query": q, "queries": [q]}
            )

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError, match="unknown field"):
            PredictionService.parse_queries(
                {"query": QUERIES[0].to_dict(), "tenant": "a"}
            )

    def test_queries_must_be_a_nonempty_list(self):
        with pytest.raises(ValidationError):
            PredictionService.parse_queries({"queries": []})
        with pytest.raises(ValidationError):
            PredictionService.parse_queries({"queries": "not-a-list"})

    def test_schema_version_negotiation(self):
        body = {"query": QUERIES[0].to_dict()}
        assert len(PredictionService.parse_queries(body)) == 1
        assert len(
            PredictionService.parse_queries(
                dict(body, schema_version=SCHEMA_VERSION)
            )
        ) == 1
        with pytest.raises(SchemaVersionError):
            PredictionService.parse_queries(
                dict(body, schema_version=SCHEMA_VERSION + 1)
            )

    def test_bad_deadline_rejected(self):
        async def scenario(service):
            for bad in (0, -1.0, "soon", True):
                with pytest.raises(ValidationError):
                    await service.handle_predict(
                        {"query": QUERIES[0].to_dict(), "deadline_s": bad}
                    )

        run_service(scenario)


class TestMetricsSnapshot:
    def test_snapshot_counts_constituent_queries(self):
        async def scenario(service):
            await asyncio.gather(
                *[
                    service.handle_predict({"query": q.to_dict()})
                    for q in QUERIES
                ]
            )
            return service.metrics_snapshot()

        snapshot = run_service(scenario)
        coalescer = snapshot["coalescer"]
        assert coalescer["submitted"] == len(QUERIES)
        assert coalescer["batched_queries"] == len(QUERIES)
        # Coalescing happened: fewer dispatches than queries.
        assert coalescer["batches"] < len(QUERIES)
        # The executor section counts every constituent cell.
        assert snapshot["executor"]["batched_cells"] == len(QUERIES)
        assert snapshot["cache"]["misses"] == len(QUERIES)

    def test_naive_configuration_disables_coalescing(self):
        config = ServiceConfig(max_batch=1, cache_entries=0)

        async def scenario(service):
            await asyncio.gather(
                *[
                    service.handle_predict({"query": q.to_dict()})
                    for q in QUERIES[:4]
                ]
            )
            return service.metrics_snapshot()

        snapshot = run_service(scenario, config)
        # Every query is its own batch through the one coalescer.
        assert snapshot["coalescer"]["submitted"] == 4
        assert snapshot["coalescer"]["batches"] == 4
        assert snapshot["coalescer"]["batched_queries"] == 4
        assert snapshot["cache"]["max_entries"] == 0

    def test_naive_mode_still_validates_at_the_boundary(self):
        from repro.api import UnknownWorkloadError

        config = ServiceConfig(max_batch=1, cache_entries=0)

        async def scenario(service):
            with pytest.raises(UnknownWorkloadError):
                await service.handle_predict(
                    {
                        "query": {
                            "workload": "linpack",
                            "size_gb": 4.0,
                            "config": "DRAM",
                        }
                    }
                )

        run_service(scenario, config)


class TestServiceConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"machine": "epyc"},
            {"workers": 0},
            {"max_batch": 0},
            {"max_queue": 0},
            {"cache_entries": -1},
            {"cache_ttl_s": 0.0},
            {"cache_ttl_s": -1.0},
            {"default_deadline_s": 0.0},
        ],
    )
    def test_invalid_knobs_raise(self, kwargs):
        with pytest.raises(ValidationError):
            ServiceConfig(**kwargs)
