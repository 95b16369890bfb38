"""Experiment runner tests."""

import pytest

from repro.api import compare_configs
from repro.core.configs import ConfigName, make_config
from repro.workloads.dgemm import DGEMM
from repro.workloads.gups import GUPS
from repro.workloads.stream import StreamBenchmark


class TestRun:
    def test_feasible_run(self, runner):
        record = runner.run(StreamBenchmark(size_bytes=int(4e9)), ConfigName.HBM)
        assert record.feasible
        assert record.metric == pytest.approx(330e9, rel=0.01)
        assert record.run_result is not None

    def test_hbm_capacity_infeasible(self, runner):
        """Problems over 16 GiB produce the paper's missing red bars."""
        record = runner.run(
            StreamBenchmark(size_bytes=int(20e9)), ConfigName.HBM
        )
        assert not record.feasible
        assert record.metric is None
        assert "NUMA node" in (record.infeasible_reason or "")

    def test_same_size_fits_dram(self, runner):
        record = runner.run(
            StreamBenchmark(size_bytes=int(20e9)), ConfigName.DRAM
        )
        assert record.feasible

    def test_dgemm_256_threads_infeasible(self, runner):
        record = runner.run(DGEMM.from_array_gb(6.0), ConfigName.DRAM, 256)
        assert not record.feasible
        assert "footnote" in (record.infeasible_reason or "")

    def test_accepts_config_objects(self, runner):
        record = runner.run(
            StreamBenchmark(size_bytes=int(1e9)), make_config(ConfigName.CACHE)
        )
        assert record.config is ConfigName.CACHE

    def test_no_leaked_allocations(self, runner):
        """Repeated runs must not exhaust the simulated nodes."""
        w = GUPS.from_table_gb(8.0)
        for _ in range(10):
            assert runner.run(w, ConfigName.HBM).feasible

    def test_record_carries_params(self, runner):
        record = runner.run(GUPS.from_table_gb(1.0), ConfigName.DRAM)
        assert "log2_entries" in record.workload_params
        assert record.metric_name == "GUPS"


class TestRunConfigs:
    def test_default_trio(self, runner):
        records = compare_configs(StreamBenchmark(size_bytes=int(2e9)), runner=runner)
        assert [r.config for r in records] == list(ConfigName.paper_trio())

    def test_explicit_configs(self, runner):
        records = compare_configs(
            StreamBenchmark(size_bytes=int(2e9)),
            configs=(ConfigName.HYBRID,),
            runner=runner,
        )
        assert records[0].config is ConfigName.HYBRID
        assert records[0].feasible
