"""SweepExecutor tests: cache keys, memoization, dispatch, stats."""

import json
import threading

import pytest

from repro.core.configs import ConfigName, make_config
from repro.core.executor import (
    RunCache,
    SweepCell,
    SweepExecutor,
    as_executor,
    cache_key,
    executor_from_env,
    record_from_json,
    record_to_json,
)
from repro.core.runner import ExperimentRunner
from repro.core.sweep import size_sweep
from repro.machine.presets import knl7210, knl7250
from repro.workloads.stream import StreamBenchmark


def _stream(gb: float) -> StreamBenchmark:
    return StreamBenchmark(size_bytes=int(gb * 1e9))


DRAM = make_config(ConfigName.DRAM)
HBM = make_config(ConfigName.HBM)
CACHE = make_config(ConfigName.CACHE)


class TestCacheKey:
    def test_stable_across_calls(self, machine):
        a = cache_key(machine, _stream(2.0), DRAM, 64)
        b = cache_key(machine, _stream(2.0), DRAM, 64)
        assert a == b

    def test_distinct_across_equal_instances(self, machine):
        assert cache_key(machine, _stream(2.0), DRAM, 64) == cache_key(
            machine, StreamBenchmark(size_bytes=int(2e9)), DRAM, 64
        )

    def test_config_changes_key(self, machine):
        w = _stream(2.0)
        assert cache_key(machine, w, DRAM, 64) != cache_key(machine, w, HBM, 64)

    def test_threads_change_key(self, machine):
        w = _stream(2.0)
        assert cache_key(machine, w, DRAM, 64) != cache_key(machine, w, DRAM, 128)

    def test_params_change_key(self, machine):
        assert cache_key(machine, _stream(2.0), DRAM, 64) != cache_key(
            machine, _stream(2.1), DRAM, 64
        )

    def test_machine_preset_invalidates(self):
        w = _stream(2.0)
        assert cache_key(knl7210(), w, DRAM, 64) != cache_key(knl7250(), w, DRAM, 64)

    def test_ablation_config_params_change_key(self, machine):
        w = _stream(2.0)
        one_way = make_config(ConfigName.CACHE, cache_associativity=1)
        eight_way = make_config(ConfigName.CACHE, cache_associativity=8)
        assert cache_key(machine, w, one_way, 64) != cache_key(
            machine, w, eight_way, 64
        )


class TestRecordSerialization:
    def test_feasible_roundtrip(self, machine):
        record = ExperimentRunner(machine).run(_stream(2.0), HBM, 64)
        assert record_from_json(record_to_json(record)) == record

    def test_infeasible_roundtrip(self, machine):
        record = ExperimentRunner(machine).run(_stream(20.0), HBM, 64)
        assert record.infeasible_reason is not None
        assert record_from_json(record_to_json(record)) == record

    def test_json_encodable(self, machine):
        record = ExperimentRunner(machine).run(_stream(2.0), CACHE, 64)
        text = json.dumps(record_to_json(record))
        assert record_from_json(json.loads(text)) == record


class TestRunCache:
    def test_lru_eviction(self, machine):
        cache = RunCache(max_entries=2)
        runner = ExperimentRunner(machine)
        records = [runner.run(_stream(gb), DRAM, 64) for gb in (1.0, 2.0, 3.0)]
        for i, record in enumerate(records):
            cache.put(f"k{i}", record)
        assert cache.get("k0") is None  # evicted
        assert cache.get("k1") == records[1]
        assert cache.get("k2") == records[2]

    def test_disk_roundtrip(self, machine, tmp_path):
        runner = ExperimentRunner(machine)
        record = runner.run(_stream(2.0), HBM, 64)
        RunCache(cache_dir=tmp_path).put("deadbeef", record)
        fresh = RunCache(cache_dir=tmp_path)
        assert fresh.get("deadbeef") == record
        assert fresh.disk_hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        assert RunCache(cache_dir=tmp_path).get("bad") is None

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            RunCache(max_entries=0)

    def test_concurrent_disk_writers_never_collide(self, machine, tmp_path):
        """Two caches on one directory putting one key: each write goes
        through a temporary file of its own, so neither loses it."""
        record = ExperimentRunner(machine).run(_stream(2.0), HBM, 64)
        start = threading.Barrier(2)
        errors: list[BaseException] = []

        def writer() -> None:
            cache = RunCache(cache_dir=tmp_path)
            try:
                start.wait()
                for _ in range(200):
                    cache.put("deadbeef", record)
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert RunCache(cache_dir=tmp_path).get("deadbeef") == record
        assert [p.name for p in tmp_path.iterdir()] == ["deadbeef.json"]


class TestSweepExecutor:
    def test_run_matches_plain_runner(self, machine):
        plain = ExperimentRunner(machine).run(_stream(2.0), ConfigName.HBM, 64)
        cached = SweepExecutor(ExperimentRunner(machine)).run(
            _stream(2.0), ConfigName.HBM, 64
        )
        assert plain == cached

    def test_batch_dedupe_counts_hits(self, machine):
        executor = SweepExecutor(ExperimentRunner(machine))
        cell = SweepCell(_stream(2.0), DRAM, 64)
        records = executor.run_cells([cell, cell, cell])
        assert records[0] == records[1] == records[2]
        stats = executor.stats()
        assert stats.misses == 1 and stats.hits == 2 and stats.executed == 1

    def test_as_executor_passthrough(self, machine):
        executor = SweepExecutor(ExperimentRunner(machine))
        assert as_executor(executor) is executor
        wrapped = as_executor(ExperimentRunner(machine))
        assert isinstance(wrapped, SweepExecutor)

    def test_stats_describe(self, machine):
        executor = SweepExecutor(ExperimentRunner(machine))
        executor.run(_stream(2.0), DRAM, 64)
        executor.run(_stream(2.0), DRAM, 64)
        text = executor.stats().describe()
        assert "2 lookups" in text and "50.0%" in text


SWEEP_SIZES = (2.0, 8.0, 20.0)


def _sweep(executor) -> list:
    rs = size_sweep(executor, _stream, SWEEP_SIZES, num_threads=64)
    return [record for _, record in rs.records]


class TestCacheHitRate:
    def test_repeated_sweep_hits_above_90_percent(self, machine):
        executor = SweepExecutor(ExperimentRunner(machine))
        _sweep(executor)
        executor.reset_stats()
        repeated = _sweep(executor)
        stats = executor.stats()
        assert stats.hit_rate > 0.9
        assert stats.executed == 0
        assert repeated == _sweep(SweepExecutor(ExperimentRunner(machine)))

    def test_cumulative_hit_rate_grows(self, machine):
        executor = SweepExecutor(ExperimentRunner(machine))
        for _ in range(12):
            _sweep(executor)
        assert executor.stats().hit_rate > 0.9

    def test_counts_are_complete(self, machine):
        # Every lookup is either a hit or a miss; every miss executed.
        executor = SweepExecutor(ExperimentRunner(machine))
        _sweep(executor)
        _sweep(executor)  # second pass: all memory-cache hits
        stats = executor.stats()
        assert stats.hits + stats.misses > 0
        assert stats.executed == stats.misses
        assert stats.hit_rate == pytest.approx(
            stats.hits / (stats.hits + stats.misses)
        )

    def test_disk_cache_survives_restart(self, machine, tmp_path):
        first = SweepExecutor(ExperimentRunner(machine), cache_dir=tmp_path)
        warm = _sweep(first)
        fresh = SweepExecutor(ExperimentRunner(machine), cache_dir=tmp_path)
        assert _sweep(fresh) == warm
        stats = fresh.stats()
        assert stats.executed == 0 and stats.hit_rate == 1.0


class TestExecutorFromEnv:
    def test_no_env_returns_runner(self, machine):
        runner = ExperimentRunner(machine)
        assert executor_from_env(runner, env={}) is runner

    def test_cache_dir_env(self, machine, tmp_path):
        wrapped = executor_from_env(
            ExperimentRunner(machine), env={"REPRO_CACHE_DIR": str(tmp_path)}
        )
        assert isinstance(wrapped, SweepExecutor)
        assert wrapped.cache.cache_dir == tmp_path
