"""The Predictor facade: identity with the legacy paths, typed boundaries.

The facade is the oracle of the serving layer — every batched, cached or
served answer must be bit-identical to ``Predictor.predict`` — so these
tests pin the facade itself against the historical entry points first.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import (
    Predictor,
    Query,
    QueryGrid,
    UnknownWorkloadError,
    ValidationError,
    compare_configs,
    machine_preset,
    sized_workload,
)
from repro.core.configs import ConfigName, make_config
from repro.core.runner import ExperimentRunner
from repro.workloads.registry import FROM_GB


@pytest.fixture(scope="module")
def predictor():
    return Predictor()


class TestScalarIdentity:
    def test_predict_matches_legacy_runner(self, predictor):
        query = Query(
            workload="minife", size_gb=7.2, config="Cache Mode", num_threads=64
        )
        result = predictor.predict(query)
        record = ExperimentRunner().run(
            FROM_GB["minife"](7.2), make_config(ConfigName("Cache Mode")), 64
        )
        assert result.metric == record.metric
        assert result.metric_name == record.metric_name
        assert result.metric_unit == record.metric_unit
        assert result.time_ns == record.run_result.time_ns

    def test_predict_many_matches_individual_predicts(self, predictor):
        queries = [
            Query(workload=w, size_gb=s, config=c, num_threads=t)
            for w, s in (("dgemm", 4.0), ("xsbench", 2.5))
            for c in ("DRAM", "HBM")
            for t in (32, 64)
        ]
        batched = predictor.predict_many(queries)
        oracle = Predictor()
        for query, result in zip(queries, batched):
            assert result == oracle.predict(query)

    def test_predict_grid_equals_expanded_many(self, predictor):
        grid = QueryGrid(
            workloads=("dgemm",),
            sizes_gb=(2.0, 4.0),
            configs=("DRAM", "HBM"),
            num_threads=(64,),
        )
        assert predictor.predict_grid(grid) == predictor.predict_many(
            list(grid.expand())
        )


class TestTypedBoundary:
    def test_infeasible_cell_is_data_not_exception(self, predictor):
        result = predictor.predict(
            Query(workload="gups", size_gb=32.0, config="HBM")
        )
        assert not result.feasible
        assert result.metric is None
        assert result.error is not None
        assert result.error.code == "infeasible_config"

    def test_unknown_workload_raises(self, predictor):
        with pytest.raises(UnknownWorkloadError):
            predictor.predict(
                Query(workload="linpack", size_gb=4.0, config="DRAM")
            )

    def test_impossible_thread_count_raises(self, predictor):
        with pytest.raises(ValidationError):
            predictor.predict(
                Query(
                    workload="dgemm",
                    size_gb=4.0,
                    config="DRAM",
                    num_threads=100_000,
                )
            )

    def test_unknown_machine_preset_raises(self):
        with pytest.raises(ValidationError):
            machine_preset("epyc")
        with pytest.raises(UnknownWorkloadError):
            sized_workload("linpack", 4.0)


class TestCacheKey:
    def test_equivalent_spellings_share_a_key(self, predictor):
        a = predictor.cache_key(
            Query(workload="MiniFE", size_gb=7.2, config="CACHE")
        )
        b = predictor.cache_key(
            Query(workload="minife", size_gb=7.2, config="Cache Mode")
        )
        assert a == b

    def test_distinct_queries_get_distinct_keys(self, predictor):
        keys = {
            predictor.cache_key(
                Query(workload="dgemm", size_gb=4.0, config=c, num_threads=t)
            )
            for c in ("DRAM", "HBM")
            for t in (32, 64)
        }
        assert len(keys) == 4


class TestExecutorStats:
    def test_batch_counts_constituent_cells(self):
        # A coalesced batch is N evaluations, not one: the stats must
        # say so (the /metrics executor section builds on these).
        predictor = Predictor()
        queries = [
            Query(workload="dgemm", size_gb=4.0, config=c, num_threads=t)
            for c in ("DRAM", "HBM", "Cache Mode")
            for t in (16, 32)
        ]
        predictor.predict_many(queries)
        stats = predictor.stats()
        assert stats.batches == 1
        assert stats.batched_cells == len(queries)
        assert stats.misses == len(queries)
        # A replay is all cache hits: no new batches.
        predictor.predict_many(queries)
        after = predictor.stats()
        assert after.batches == 1
        assert after.hits == len(queries)


class TestCompareConfigs:
    def test_defaults_to_paper_trio_in_order(self, predictor):
        workload = FROM_GB["xsbench"](2.5)
        records = compare_configs(workload, runner=predictor.executor())
        trio = list(ConfigName.paper_trio())
        assert [r.config for r in records] == trio
        for record, config in zip(records, trio):
            oracle = ExperimentRunner().run(workload, make_config(config), 64)
            assert record.metric == oracle.metric


class TestExecutorTableThreadSafety:
    """The cross-thread stats contract: ``stats()`` (the /metrics
    executor section) must be callable while other threads grow the
    executor table — the regression behind the sharded /metrics
    aggregation (a concurrently-grown dict being iterated raises
    "dictionary changed size during iteration")."""

    def test_stats_is_safe_during_executor_growth(self):
        from repro.machine import registry

        names = [n for n in registry.names()]
        errors: list[Exception] = []
        predictor = Predictor()
        barrier = threading.Barrier(3)

        def reader() -> None:
            try:
                barrier.wait()
                for _ in range(200):
                    predictor.stats()
            except Exception as exc:
                errors.append(exc)

        def grower() -> None:
            try:
                barrier.wait()
                for name in names:
                    predictor.executor(name)
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=reader),
            threading.Thread(target=reader),
            threading.Thread(target=grower),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert errors == []
        assert len(predictor._executor_snapshot()) == len(names)

    def test_concurrent_executor_creation_yields_one_instance(self):
        predictor = Predictor()
        barrier = threading.Barrier(4)
        seen: list[object] = []
        lock = threading.Lock()

        def create() -> None:
            barrier.wait()
            executor = predictor.executor("knl7250")
            with lock:
                seen.append(executor)

        threads = [threading.Thread(target=create) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(seen) == 4
        assert all(executor is seen[0] for executor in seen)
