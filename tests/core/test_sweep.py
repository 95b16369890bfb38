"""Sweep tests."""

import pytest

from repro.core.configs import ConfigName, make_config
from repro.core.sweep import resolve_configs, size_sweep, thread_sweep
from repro.workloads.stream import StreamBenchmark


class TestSizeSweep:
    def test_shape(self, runner):
        rs = size_sweep(
            runner,
            lambda gb: StreamBenchmark(size_bytes=int(gb * 1e9)),
            [2.0, 20.0],
        )
        assert rs.xs == [2.0, 20.0]
        assert len(rs.records) == 6

    def test_hbm_missing_beyond_capacity(self, runner):
        rs = size_sweep(
            runner,
            lambda gb: StreamBenchmark(size_bytes=int(gb * 1e9)),
            [2.0, 20.0],
        )
        assert rs.value(2.0, ConfigName.HBM) is not None
        assert rs.value(20.0, ConfigName.HBM) is None

    def test_empty_sizes_rejected(self, runner):
        with pytest.raises(ValueError):
            size_sweep(runner, lambda gb: StreamBenchmark(size_bytes=1000), [])

    def test_custom_configs(self, runner):
        rs = size_sweep(
            runner,
            lambda gb: StreamBenchmark(size_bytes=int(gb * 1e9)),
            [1.0],
            configs=[ConfigName.DRAM],
        )
        assert rs.configs == [ConfigName.DRAM]


class TestSweepValidation:
    def test_duplicate_configs_rejected(self, runner):
        with pytest.raises(ValueError, match="duplicate configuration"):
            size_sweep(
                runner,
                lambda gb: StreamBenchmark(size_bytes=int(gb * 1e9)),
                [1.0],
                configs=[ConfigName.DRAM, ConfigName.DRAM],
            )

    def test_duplicate_mixed_form_configs_rejected(self, runner):
        """A name and its resolved config are the same sweep column."""
        with pytest.raises(ValueError, match="duplicate configuration"):
            thread_sweep(
                runner,
                StreamBenchmark(size_bytes=1000),
                [64],
                configs=[make_config(ConfigName.HBM), ConfigName.HBM],
            )

    def test_duplicate_sizes_rejected(self, runner):
        with pytest.raises(ValueError, match="duplicate sweep point"):
            size_sweep(
                runner,
                lambda gb: StreamBenchmark(size_bytes=int(gb * 1e9)),
                [2.0, 4.0, 2.0],
            )

    def test_duplicate_threads_rejected(self, runner):
        with pytest.raises(ValueError, match="duplicate sweep point"):
            thread_sweep(runner, StreamBenchmark(size_bytes=1000), [64, 64])

    def test_empty_configs_rejected(self, runner):
        with pytest.raises(ValueError, match="non-empty"):
            size_sweep(
                runner,
                lambda gb: StreamBenchmark(size_bytes=int(gb * 1e9)),
                [1.0],
                configs=[],
            )

    def test_resolve_configs_resolves_names_once(self):
        resolved = resolve_configs([ConfigName.DRAM, ConfigName.HBM])
        assert [c.name for c in resolved] == [ConfigName.DRAM, ConfigName.HBM]
        assert all(hasattr(c, "numactl") for c in resolved)

    def test_resolve_configs_default_is_paper_trio(self):
        assert [c.name for c in resolve_configs(None)] == list(
            ConfigName.paper_trio()
        )


class TestSweepThroughExecutor:
    def test_size_sweep_identical_via_executor(self, machine):
        from repro.core.executor import SweepExecutor
        from repro.core.runner import ExperimentRunner

        factory = lambda gb: StreamBenchmark(size_bytes=int(gb * 1e9))
        plain = size_sweep(ExperimentRunner(machine), factory, [2.0, 20.0])
        executor = SweepExecutor(ExperimentRunner(machine))
        via_executor = size_sweep(executor, factory, [2.0, 20.0])
        assert [r for _, r in plain.records] == [
            r for _, r in via_executor.records
        ]


class TestThreadSweep:
    def test_shape(self, runner):
        rs = thread_sweep(
            runner, StreamBenchmark(size_bytes=int(4e9)), [64, 128]
        )
        assert rs.xs == [64.0, 128.0]

    def test_hbm_bandwidth_grows_with_threads(self, runner):
        rs = thread_sweep(
            runner, StreamBenchmark(size_bytes=int(4e9)), [64, 128]
        )
        assert rs.value(128.0, ConfigName.HBM) > rs.value(64.0, ConfigName.HBM)

    def test_empty_threads_rejected(self, runner):
        with pytest.raises(ValueError):
            thread_sweep(runner, StreamBenchmark(size_bytes=1000), [])
