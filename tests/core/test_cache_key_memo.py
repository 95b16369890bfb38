"""The per-object memo behind :meth:`SweepExecutor.cache_key`.

The memo must be invisible: every key it returns is exactly the string
the module-level :func:`repro.core.executor.cache_key` computes, check
modes and machines never share an entry, and it never grows past
:data:`repro.core.executor.CELL_KEY_MEMO_SIZE`.
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro.core.executor as executor_module
from repro.checks.checker import CheckingRunner
from repro.core.configs import ConfigName, make_config
from repro.core.executor import SweepCell, SweepExecutor, cache_key
from repro.core.runner import ExperimentRunner
from repro.machine.presets import knl7210, knl7250
from repro.workloads.stream import StreamBenchmark

DRAM = make_config(ConfigName.DRAM)
HBM = make_config(ConfigName.HBM)


@pytest.fixture()
def memo(monkeypatch):
    """A fresh, isolated memo for the test."""
    fresh: dict = {}
    monkeypatch.setattr(executor_module, "_CELL_KEYS", fresh)
    return fresh


def _stream(gb: float) -> StreamBenchmark:
    return StreamBenchmark(size_bytes=int(gb * 1e9))


class TestCellKeyMemo:
    def test_hit_returns_the_module_level_key(self, memo, machine):
        executor = SweepExecutor(ExperimentRunner(machine))
        cell = SweepCell(_stream(2.0), HBM, 64)
        first = executor.cache_key(cell)
        assert len(memo) == 1
        again = executor.cache_key(cell)
        assert len(memo) == 1
        assert first == again == cache_key(machine, cell.workload, HBM, 64)

    def test_check_mode_keys_stay_distinct(self, memo, machine):
        plain = SweepExecutor(ExperimentRunner(machine))
        checked = SweepExecutor(CheckingRunner(ExperimentRunner(machine), mode="warn"))
        assert checked.machine is plain.machine
        cell = SweepCell(_stream(2.0), DRAM, 64)
        for _ in range(2):  # second round answers from the memo
            unchecked_key = plain.cache_key(cell)
            warn_key = checked.cache_key(cell)
            assert unchecked_key == cache_key(machine, cell.workload, DRAM, 64)
            assert warn_key == cache_key(
                machine, cell.workload, DRAM, 64, check="warn"
            )
            assert unchecked_key != warn_key
        assert len(memo) == 2

    def test_machines_stay_distinct(self, memo):
        cell = SweepCell(_stream(2.0), DRAM, 64)
        keys = {
            SweepExecutor(ExperimentRunner(m)).cache_key(cell)
            for m in (knl7210(), knl7250())
        }
        assert len(keys) == 2

    def test_equal_workload_objects_share_a_key(self, memo, machine):
        executor = SweepExecutor(ExperimentRunner(machine))
        a, b = _stream(3.0), _stream(3.0)
        assert a is not b
        key_a = executor.cache_key(SweepCell(a, DRAM, 32))
        key_b = executor.cache_key(SweepCell(b, DRAM, 32))
        assert key_a == key_b
        assert len(memo) == 2  # one entry per object, same string

    def test_thread_count_and_config_change_the_key(self, memo, machine):
        executor = SweepExecutor(ExperimentRunner(machine))
        workload = _stream(2.0)
        keys = {
            executor.cache_key(SweepCell(workload, config, threads))
            for config in (DRAM, HBM)
            for threads in (32, 64)
        }
        assert len(keys) == 4

    def test_never_grows_past_its_bound(self, memo, machine):
        bound = executor_module.CELL_KEY_MEMO_SIZE
        executor = SweepExecutor(ExperimentRunner(machine))
        cells = [
            SweepCell(StreamBenchmark(size_bytes=1_000_000 * (i + 1)), DRAM, 64)
            for i in range(bound + 16)
        ]
        for cell in cells:
            key = executor.cache_key(cell)
            assert len(memo) <= bound
        assert len(memo) == bound
        # The oldest entries went first; the newest answers from the memo.
        held = {id(entry[1]) for entry in memo.values()}
        assert id(cells[0].workload) not in held
        assert id(cells[-1].workload) in held
        assert key == cache_key(machine, cells[-1].workload, DRAM, 64)

    def test_concurrent_keying_stays_bounded_and_exact(
        self, memo, machine, monkeypatch
    ):
        """More threads than cores key overlapping cells through a tiny
        memo, switching often: every key is still exact and evictions
        never overrun the bound."""
        monkeypatch.setattr(executor_module, "CELL_KEY_MEMO_SIZE", 8)
        executor = SweepExecutor(ExperimentRunner(machine))
        cells = [
            SweepCell(StreamBenchmark(size_bytes=1_000_000 * (i + 1)), DRAM, 64)
            for i in range(24)
        ]
        expected = [cache_key(machine, c.workload, DRAM, 64) for c in cells]
        errors: list[BaseException] = []

        def worker(offset: int) -> None:
            try:
                for round_ in range(20):
                    for i in range(len(cells)):
                        j = (i + offset + round_) % len(cells)
                        assert executor.cache_key(cells[j]) == expected[j]
                        assert len(memo) <= 8
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memo) <= 8
