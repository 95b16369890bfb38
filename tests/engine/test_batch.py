"""Batch-vs-scalar equivalence: the columnar engine's bit-for-bit contract.

`repro.engine.batch` promises results *identical* to the scalar engine —
not approximately equal — so these tests compare full ``RunRecord``
dataclasses (every PhaseResult float, every infeasible reason) across:

* every registry workload x the paper trio x the thread ladder,
  including the infeasible cells (HBM > 16 GB, DGEMM at 256 threads);
* fine-grained dict placements and the ablation configs (HYBRID,
  INTERLEAVE) through ``ModelTables.evaluate_batch``;
* the executor's transparent batch path vs a forced scalar loop.

Observability in batch mode accounts in aggregate (one span, summed
counters, merged histograms); the accounting tests pin that the *totals*
match a scalar loop's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.configs import ConfigName, make_config
from repro.core.executor import ExecutionStrategy, SweepCell, SweepExecutor
from repro.core.runner import ExperimentRunner
from repro.engine.batch import BatchEvaluator, ModelTables
from repro.engine.perfmodel import PerformanceModel
from repro.engine.placement import Location, PlacementMix
from repro.machine.presets import knl7210
from repro.memory.modes import MCDRAMConfig, MemorySystem
from repro.obs import metrics as obs_metrics
from repro.obs.session import observe
from repro.workloads.base import Workload
from repro.workloads.registry import FROM_GB
from repro.workloads.stream import StreamBenchmark
from repro.workloads.tinymembench import TinyMemBench
from tests.oracles.model_tables import filled_memos, scalar_memo_mismatches

THREAD_LADDER = (1, 64, 128, 256)


def registry_instances() -> list[Workload]:
    """One instance of every registry workload, plus the infeasible cases."""
    sized = [factory(7.2) for factory in FROM_GB.values()]
    return sized + [
        FROM_GB["minife"](34.0),  # > 16 GB: HBM-infeasible
        StreamBenchmark(2_000_000_000),
        TinyMemBench(1_000_000_000),
    ]


@pytest.fixture(scope="module")
def grid():
    workloads = registry_instances()
    cells = [
        (workload, make_config(config), threads)
        for workload in workloads
        for config in ConfigName.paper_trio()
        for threads in THREAD_LADDER
    ]
    return cells


@pytest.fixture(scope="module")
def scalar_records(grid):
    runner = ExperimentRunner()
    return [runner.run(w, c, t) for w, c, t in grid]


class TestGoldenEquivalence:
    def test_every_record_identical(self, grid, scalar_records):
        result = BatchEvaluator().evaluate(grid)
        assert len(result) == len(grid)
        for i, expected in enumerate(scalar_records):
            assert result.record(i) == expected, grid[i]

    def test_records_list_matches_per_point_records(self, grid, scalar_records):
        assert BatchEvaluator().evaluate(grid).records() == scalar_records

    def test_infeasible_cells_surface_identically(self, grid, scalar_records):
        result = BatchEvaluator().evaluate(grid)
        infeasible = [
            i for i, r in enumerate(scalar_records) if r.infeasible_reason
        ]
        # The grid must actually contain both modelled failure modes.
        reasons = {scalar_records[i].infeasible_reason for i in infeasible}
        assert any("NUMA node" in r for r in reasons)  # HBM capacity
        assert any("256" in r for r in reasons)  # DGEMM thread limit
        for i in infeasible:
            assert not result.feasible[i]
            assert np.isnan(result.metric[i])
            assert (
                result.record(i).infeasible_reason
                == scalar_records[i].infeasible_reason
            )

    def test_metric_array_matches_scalar_metrics(self, grid, scalar_records):
        result = BatchEvaluator().evaluate(grid)
        for i, record in enumerate(scalar_records):
            if record.metric is None:
                assert np.isnan(result.metric[i])
            else:
                assert result.metric[i] == record.metric

    def test_invalid_thread_count_raises_like_scalar(self):
        workload = FROM_GB["gups"](1.0)
        cells = [(workload, make_config(ConfigName.DRAM), 300)]
        with pytest.raises(ValueError):
            BatchEvaluator().evaluate(cells)

    def test_evaluator_state_reused_across_calls(self, grid, scalar_records):
        evaluator = BatchEvaluator()
        evaluator.evaluate(grid)  # prime every memo table
        assert evaluator.evaluate(grid).records() == scalar_records


class TestRunBatch:
    """ModelTables.evaluate_batch vs PerformanceModel.evaluate (fine-grained API)."""

    @pytest.mark.parametrize(
        "mcdram",
        [
            MCDRAMConfig.flat(),
            MCDRAMConfig.cache(),
            MCDRAMConfig.hybrid(0.5),
        ],
        ids=["flat", "cache", "hybrid"],
    )
    def test_pure_mixes_match(self, mcdram):
        machine = knl7210()
        memory = MemorySystem(mcdram)
        tables = ModelTables(machine, memory)
        model = PerformanceModel(machine, memory)
        profile = FROM_GB["minife"](7.2).profile()
        locations = []
        if not memory.dram_fronted_by_cache:
            locations.append(Location.DRAM)
        else:
            locations.append(Location.DRAM_CACHED)
        if memory.has_flat_hbm:
            locations.append(Location.HBM)
        requests = [
            (profile, PlacementMix.pure(location), threads)
            for location in locations
            for threads in THREAD_LADDER
        ]
        batch = tables.evaluate_batch(requests)
        for (p, mix, threads), got in zip(requests, batch):
            assert got == model.evaluate(p, mix, threads)

    def test_split_and_dict_mixes_match(self):
        machine = knl7210()
        memory = MemorySystem(MCDRAMConfig.flat())
        tables = ModelTables(machine, memory)
        model = PerformanceModel(machine, memory)
        profile = FROM_GB["minife"](7.2).profile()
        split = PlacementMix(((Location.DRAM, 0.3), (Location.HBM, 0.7)))
        per_phase = {
            phase.name: PlacementMix.pure(
                Location.HBM if i % 2 else Location.DRAM
            )
            for i, phase in enumerate(profile.phases)
        }
        requests = [
            (profile, split, 64),
            (profile, per_phase, 64),
            (profile, split, 256),
        ]
        batch = tables.evaluate_batch(requests)
        for (p, mix, threads), got in zip(requests, batch):
            assert got == model.evaluate(p, mix, threads)

    def test_missing_phase_raises_like_scalar(self):
        machine = knl7210()
        memory = MemorySystem(MCDRAMConfig.flat())
        tables = ModelTables(machine, memory)
        model = PerformanceModel(machine, memory)
        profile = FROM_GB["minife"](7.2).profile()
        partial = {profile.phases[0].name: PlacementMix.pure(Location.DRAM)}
        with pytest.raises(ValueError) as batch_err:
            tables.evaluate_batch([(profile, partial, 64)])
        with pytest.raises(ValueError) as scalar_err:
            model.evaluate(profile, partial, 64)
        assert str(batch_err.value) == str(scalar_err.value)


class TestExecutorBatchPath:
    def test_batch_strategy_parses(self):
        assert ExecutionStrategy.parse("batch") is ExecutionStrategy.BATCH

    def test_executor_records_identical_to_forced_scalar(self, grid):
        cells = [SweepCell(w, c, t) for w, c, t in grid]
        with SweepExecutor(ExperimentRunner()) as batched:
            via_batch = batched.run_cells(cells)
        # jobs=2 + threads strategy is excluded from the batch gate and
        # dispatches per cell through the historical path.
        with SweepExecutor(
            ExperimentRunner(), jobs=2, strategy="threads"
        ) as scalar:
            via_scalar = scalar.run_cells(cells)
        assert via_batch == via_scalar

    def test_single_cell_uses_scalar_path(self):
        # One cell gains nothing from vectorization; the gate requires
        # at least two so `executor.run` keeps per-cell span semantics.
        executor = SweepExecutor(ExperimentRunner())
        assert not executor._batch_eligible(
            [SweepCell(FROM_GB["gups"](1.0), make_config(ConfigName.DRAM), 64)]
        )

    def test_checking_runner_not_batched(self):
        executor = SweepExecutor(ExperimentRunner(), check="warn")
        cells = [
            SweepCell(FROM_GB["gups"](1.0), make_config(c), 64)
            for c in ConfigName.paper_trio()
        ]
        assert not executor._batch_eligible(cells)

    def test_env_selects_batch_strategy(self, monkeypatch):
        from repro.core.executor import executor_from_env

        monkeypatch.setenv("REPRO_EXECUTOR", "batch")
        executor = executor_from_env(ExperimentRunner())
        assert executor.strategy is ExecutionStrategy.BATCH


class TestBatchObservability:
    """Aggregate accounting must total the same as a scalar loop's."""

    @pytest.fixture()
    def small_grid(self):
        workloads = [FROM_GB["minife"](7.2), FROM_GB["gups"](1.0),
                     FROM_GB["minife"](34.0)]
        return [
            (w, make_config(c), t)
            for w in workloads
            for c in ConfigName.paper_trio()
            for t in (64, 256)
        ]

    def _collect(self, fn):
        registry = obs_metrics.install()
        try:
            fn()
        finally:
            obs_metrics.uninstall()
        return registry.as_dict()

    def test_counter_totals_match_scalar_loop(self, small_grid):
        runner = ExperimentRunner()
        scalar = self._collect(
            lambda: [runner.run(w, c, t) for w, c, t in small_grid]
        )
        batch = self._collect(
            lambda: BatchEvaluator().evaluate(small_grid)
        )
        assert set(batch["counters"]) == set(scalar["counters"])
        for name, value in scalar["counters"].items():
            assert batch["counters"][name] == pytest.approx(value, rel=1e-9), name
        # Run accounting is integral and must be exact.
        for name in ("model.runs",):
            assert batch["counters"][name] == scalar["counters"][name]

    def test_histogram_totals_match_scalar_loop(self, small_grid):
        runner = ExperimentRunner()
        scalar = self._collect(
            lambda: [runner.run(w, c, t) for w, c, t in small_grid]
        )
        batch = self._collect(
            lambda: BatchEvaluator().evaluate(small_grid)
        )
        assert set(batch["histograms"]) == set(scalar["histograms"])
        for name, summary in scalar["histograms"].items():
            got = batch["histograms"][name]
            assert got["count"] == summary["count"], name
            assert got["min"] == summary["min"], name
            assert got["max"] == summary["max"], name
            assert got["sum"] == pytest.approx(summary["sum"], rel=1e-9), name

    def test_batch_emits_aggregate_span_not_per_point(self, small_grid):
        from repro.obs import trace as obs_trace

        tracer = obs_trace.install()
        try:
            BatchEvaluator().evaluate(small_grid)
        finally:
            obs_trace.uninstall()
        names = [record.name for record in tracer.records()]
        assert names.count("batch.evaluate") == 1
        assert "perfmodel.run" not in names

    def test_records_identical_with_observability_active(
        self, small_grid
    ):
        plain = BatchEvaluator().evaluate(small_grid).records()
        obs_metrics.install()
        try:
            observed = BatchEvaluator().evaluate(small_grid).records()
        finally:
            obs_metrics.uninstall()
        assert observed == plain


class TestObserveMany:
    def test_matches_per_observation_summary(self):
        a, b = obs_metrics.MetricsRegistry(), obs_metrics.MetricsRegistry()
        values = [3.0, 1.0, 2.0, 5.0, 4.0]
        for v in values:
            a.observe("x", v)
        b.observe_many("x", np.array(values))
        sa, sb = a.histogram_summary("x"), b.histogram_summary("x")
        assert (sb.count, sb.minimum, sb.maximum) == (
            sa.count,
            sa.minimum,
            sa.maximum,
        )
        assert sb.total == pytest.approx(sa.total)

    def test_empty_batch_is_a_noop(self):
        registry = obs_metrics.MetricsRegistry()
        registry.observe_many("x", np.array([]))
        assert registry.histogram_summary("x") is None

    def test_merge_folds_extremes(self):
        h = obs_metrics.Histogram()
        h.observe(10.0)
        h.merge(count=2, total=3.0, minimum=1.0, maximum=2.0)
        assert h.count == 3
        assert h.total == 13.0
        assert h.minimum == 1.0
        assert h.maximum == 10.0
        h.merge(count=0, total=99.0, minimum=-5.0, maximum=50.0)  # ignored
        assert h.count == 3

    def test_module_level_noop_when_disabled(self):
        obs_metrics.observe_many("x", np.array([1.0]))  # must not raise


class TestScalarReferenceFill:
    """The columnar memo fills are a pure perf change.

    ``ModelTables`` fills every memo miss through a bulk ``*_many``
    call; each stored float must equal one scalar model call for its key
    (``tests/oracles/model_tables.py``), and every answer must equal the
    scalar ``PerformanceModel.evaluate``.  An observation session is
    active so the observe-only memos (MCDRAM-cache hit rates, capacity
    hits, TLB rates) are filled and checked too.
    """

    @pytest.mark.parametrize(
        "mcdram",
        [MCDRAMConfig.flat(), MCDRAMConfig.cache()],
        ids=["flat", "cache"],
    )
    def test_memos_and_outputs_identical(self, mcdram):
        machine = knl7210()
        memory = MemorySystem(mcdram)
        tables = ModelTables(machine, memory)
        model = PerformanceModel(machine, memory)
        profiles = [
            FROM_GB[name](size).profile()
            for name in ("minife", "gups")
            for size in (0.5, 7.2, 12.0, 24.0)
        ]
        if memory.dram_fronted_by_cache:
            locations = [Location.DRAM_CACHED]
        else:
            locations = [Location.DRAM, Location.HBM]
        requests = [
            (profile, PlacementMix.pure(location), threads)
            for profile in profiles
            for location in locations
            for threads in (1, 64, 256)
        ]
        with observe():
            batch = tables.evaluate_batch(requests)
        assert batch == [model.evaluate(*request) for request in requests]
        expected = {
            "seq_lat", "seq_cap", "rand_lat", "rand_cap",
            "tlb_l1", "tlb_l2", "tlb_depth",
        }
        if memory.dram_fronted_by_cache:
            expected |= {"hit_rate", "cap_hit"}
        assert filled_memos(tables) == expected
        assert scalar_memo_mismatches(tables) == []

    def test_snapshot_prefill_round_trip_is_exact(self):
        machine = knl7210()
        memory = MemorySystem(MCDRAMConfig.cache())
        built = ModelTables(machine, memory)
        profile = FROM_GB["minife"](7.2).profile()
        requests = [
            (profile, PlacementMix.pure(Location.DRAM_CACHED), threads)
            for threads in (1, 64, 256)
        ]
        expected = built.evaluate_batch(requests)
        # Through the JSON wire format, like the persistent cache does.
        import json

        payload = json.loads(json.dumps(built.snapshot()))
        loaded = ModelTables(machine, memory)
        loaded.prefill(payload)
        assert loaded.snapshot() == built.snapshot()
        assert loaded.evaluate_batch(requests) == expected
