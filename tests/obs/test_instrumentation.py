"""The instrumented pipeline: spans/metrics emitted, results unchanged.

These tests pin the contract of docs/OBSERVABILITY.md: enabling a
session surfaces the model's internals (cache hit/miss/conflict counts,
TLB walks, per-device bytes, concurrency) without changing any computed
record.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.configs import ConfigName
from repro.core.executor import SweepCell, SweepExecutor
from repro.core.runner import ExperimentRunner
from repro.workloads.gups import GUPS
from repro.workloads.stream import StreamBenchmark


def _gups(gb: float = 8.6) -> GUPS:
    return GUPS.from_table_gb(gb)


class TestRunnerInstrumentation:
    def test_cache_mode_random_run_surfaces_model_internals(self):
        with obs.observe() as session:
            record = ExperimentRunner().run(_gups(), ConfigName.CACHE, 64)
        assert record.metric is not None
        registry = session.metrics
        labels = {"pattern": "random"}

        accesses = registry.counter_value("mcdram_cache.accesses", labels)
        hits = registry.counter_value("mcdram_cache.hits", labels)
        misses = registry.counter_value("mcdram_cache.misses", labels)
        conflicts = registry.counter_value("mcdram_cache.conflict_misses", labels)
        assert accesses > 0
        assert hits + misses == pytest.approx(accesses)
        assert 0 <= conflicts <= misses
        hit_rate = registry.gauge_value("mcdram_cache.hit_rate", labels)
        assert 0.0 <= hit_rate <= 1.0

        # Cache mode serves every byte through MCDRAM; misses also move
        # DDR bytes — so both devices show traffic, MCDRAM the larger.
        mcdram = registry.counter_value("model.bytes_moved", {"device": "mcdram"})
        dram = registry.counter_value("model.bytes_moved", {"device": "dram"})
        assert mcdram > 0 and dram > 0
        assert mcdram >= dram

        assert registry.counter_value("tlb.l1_misses") > 0
        assert registry.counter_value("tlb.walks") > 0
        assert registry.counter_value(
            "runner.runs", {"config": "Cache Mode"}
        ) == 1
        concurrency = registry.histogram_summary(
            "model.concurrency", {"pattern": "random"}
        )
        assert concurrency is not None and concurrency.count >= 1

    def test_flat_dram_run_moves_no_mcdram_bytes(self):
        with obs.observe() as session:
            ExperimentRunner().run(_gups(), ConfigName.DRAM, 64)
        registry = session.metrics
        assert registry.counter_value("model.bytes_moved", {"device": "dram"}) > 0
        assert (
            registry.counter_value("model.bytes_moved", {"device": "mcdram"}) == 0
        )

    def test_infeasible_run_counted(self):
        with obs.observe() as session:
            record = ExperimentRunner().run(_gups(32.0), ConfigName.HBM, 64)
        assert record.metric is None  # 32 GB exceeds MCDRAM's 16 GB
        assert session.metrics.counter_value(
            "runner.infeasible", {"config": "HBM"}
        ) == 1

    def test_span_tree_of_one_run(self):
        with obs.observe() as session:
            ExperimentRunner().run(_gups(), ConfigName.CACHE, 64)
        by_name = {r.name: r for r in session.spans()}
        run = by_name["runner.run"]
        model = by_name["perfmodel.run"]
        phase = by_name["perfmodel.phase"]
        assert run.depth == 0 and run.parent is None
        assert model.parent == "runner.run" and model.depth == 1
        assert phase.parent == "perfmodel.run" and phase.depth == 2
        assert run.tags["workload"] == "GUPS"
        assert run.tags["config"] == "Cache Mode"
        assert phase.tags["pattern"] == "random"

    def test_record_identical_with_and_without_observation(self):
        plain = ExperimentRunner().run(_gups(), ConfigName.CACHE, 64)
        with obs.observe():
            observed = ExperimentRunner().run(_gups(), ConfigName.CACHE, 64)
        assert observed == plain


class TestExecutorInstrumentation:
    def _cells(self):
        from repro.core.configs import make_config

        dram = make_config(ConfigName.DRAM)
        return [
            SweepCell(StreamBenchmark(size_bytes=int(gb * 1e9)), dram, 64)
            for gb in (2.0, 4.0)
        ]

    def test_cell_profiles_delivered_in_submission_order(self):
        collector = obs.CellProfileCollector()
        with obs.observe():
            executor = SweepExecutor(
                ExperimentRunner(), profile_hooks=[collector]
            )
            executor.run_cells(self._cells())
            executor.run_cells(self._cells())  # second pass: all cached
        profiles = collector.profiles
        assert len(profiles) == 4
        assert [p.cached for p in profiles] == [False, False, True, True]
        assert [p.workload for p in profiles] == ["STREAM"] * 4
        assert all(p.wall_ns >= 0 for p in profiles)
        assert all(p.metric is not None for p in profiles)
        table = collector.describe()
        assert "4 cells (2 cached)" in table

    def test_hooks_work_without_observation_session(self):
        collector = obs.CellProfileCollector()
        executor = SweepExecutor(ExperimentRunner())
        executor.add_profile_hook(collector)
        executor.run_cells(self._cells())
        assert len(collector.profiles) == 2
        assert not obs.enabled()

    def test_executor_metrics_and_spans(self):
        with obs.observe() as session:
            # A checking runner keeps per-cell dispatch (the batch gate
            # wants a plain runner), so every executed cell gets a span.
            executor = SweepExecutor(ExperimentRunner(), check="warn")
            executor.run_cells(self._cells())
            executor.run_cells(self._cells())
        registry = session.metrics
        assert registry.counter_value("executor.cache_misses") == 2
        assert registry.counter_value("executor.cache_hits") == 2
        assert registry.counter_value("executor.cells_executed") == 2
        assert registry.counter_value("executor.cells", {"source": "model"}) == 2
        assert registry.counter_value("executor.cells", {"source": "cache"}) == 2
        assert registry.gauge_value("executor.hit_rate") == pytest.approx(0.5)
        names = [s.name for s in session.spans()]
        assert names.count("executor.run_cells") == 2
        assert names.count("executor.cell") == 2  # only executed cells traced
        cell_spans = [s for s in session.spans() if s.name == "executor.cell"]
        assert {s.tags["workload"] for s in cell_spans} == {"STREAM"}
