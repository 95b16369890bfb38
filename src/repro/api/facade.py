"""The unified prediction facade.

One entry point behind which every consumer — CLI, service, advisor,
placement optimizer, sweeps — evaluates the performance model.  The
facade speaks two levels:

* **wire level** — :class:`~repro.api.types.Query` /
  :class:`~repro.api.types.QueryGrid` in,
  :class:`~repro.api.types.PredictionResult` out
  (:meth:`Predictor.predict`, :meth:`Predictor.predict_many`,
  :meth:`Predictor.predict_grid`); names are resolved, validated and
  canonicalized here, so typed :mod:`repro.api.errors` are raised at the
  boundary and never from deep inside a coalesced batch;
* **object level** — :class:`~repro.workloads.base.Workload` /
  :class:`~repro.core.configs.SystemConfig` instances in,
  :class:`~repro.core.runner.RunRecord` out (:meth:`Predictor.run`,
  :meth:`Predictor.run_cells`, :func:`compare_configs`,
  :func:`evaluate_placements`) — the shapes the in-process consumers
  already hold.

Both levels route through one :class:`~repro.core.executor.SweepExecutor`
per machine preset, so every path shares the content-addressed run cache
and the columnar batch engine, and batch results stay bit-identical to
scalar evaluation (the PR-4 contract).

Thread-safety: a :class:`Predictor` is **not** thread-safe — the batch
evaluator it drives mutates a shared simulated-OS allocator.  The serving
layer gives each worker thread its own predictor; in-process callers
share the module-level default from a single thread.
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from repro.api.errors import UnknownWorkloadError, ValidationError
from repro.api.types import MACHINE_NAMES, PredictionResult, Query, QueryGrid

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.executor import ExecutorStats, SweepCell, SweepExecutor
    from repro.core.runner import RunRecord
    from repro.engine.batch import ModelTables
    from repro.engine.perfmodel import RunResult
    from repro.engine.profilephase import MemoryProfile
    from repro.machine.topology import KNLMachine
    from repro.workloads.base import Workload

__all__ = [
    "Predictor",
    "default_predictor",
    "predict",
    "predict_many",
    "predict_grid",
    "compare_configs",
    "evaluate_placements",
    "query_cache_key",
    "sized_workload",
    "machine_preset",
]


def machine_preset(name: str) -> "KNLMachine":
    """Build the named machine preset (:data:`~repro.api.types.MACHINE_NAMES`).

    Every name resolves through the declarative machine registry
    (:mod:`repro.machine.registry`); the KNL entries build bit-identical
    twins of the historical hand-coded presets.
    """
    from repro.machine import registry

    try:
        return registry.build(name.lower())
    except KeyError:
        raise ValidationError(
            f"unknown machine {name!r}; expected one of {', '.join(MACHINE_NAMES)}"
        ) from None


@functools.lru_cache(maxsize=1024)
def sized_workload(name: str, size_gb: float) -> "Workload":
    """A workload instance at the paper's size axis (memoized).

    Raises :class:`UnknownWorkloadError` for names without a size
    constructor and :class:`ValidationError` for sizes the constructor
    rejects.  Instances are immutable after construction, so sharing the
    memoized object across predictors is safe.
    """
    from repro.workloads.registry import FROM_GB

    ctor = FROM_GB.get(name.lower())
    if ctor is None:
        raise UnknownWorkloadError(
            f"workload {name!r} is not queryable by size; available: "
            f"{', '.join(sorted(FROM_GB))}",
            details={"available": sorted(FROM_GB)},
        )
    try:
        return ctor(float(size_gb))
    except (ValueError, TypeError) as exc:
        raise ValidationError(
            f"cannot size {name} at {size_gb} GB: {exc}"
        ) from exc


class Predictor:
    """The facade object: queries in, predictions out, one executor per
    machine preset.

    ``runner`` (an :class:`~repro.core.runner.ExperimentRunner`,
    :class:`~repro.checks.checker.CheckingRunner` or an existing
    :class:`~repro.core.executor.SweepExecutor`) seeds the executor for
    its own machine preset; other presets get a fresh executor on first
    use.  Executors dispatch multi-cell misses through the columnar
    batch engine automatically.
    """

    def __init__(
        self,
        runner: Any = None,
        *,
        machine: str = "knl7210",
        cache_size: int = 4096,
        cache_dir: Any = None,
        table_cache_dir: Any = None,
    ) -> None:
        if machine.lower() not in MACHINE_NAMES:
            raise ValidationError(
                f"unknown machine {machine!r}; expected one of "
                f"{', '.join(MACHINE_NAMES)}"
            )
        self.default_machine = machine.lower()
        self.cache_size = cache_size
        self.cache_dir = cache_dir
        self.table_cache_dir = table_cache_dir
        # Guards the executor table only.  Evaluation stays single-thread
        # by contract, but stats() legitimately reads the table
        # from *other* threads (the service's /metrics path aggregates
        # worker predictors), and an unguarded dict being grown by
        # executor() mid-iteration raises "dictionary changed size
        # during iteration".
        self._executors_lock = threading.Lock()
        self._executors: dict[str, "SweepExecutor"] = {}
        self._tables: dict[str, "ModelTables"] = {}
        if runner is not None:
            from repro.core.executor import as_executor

            self._executors[self.default_machine] = as_executor(runner)

    # -- executors ------------------------------------------------------------
    def executor(self, machine: str | None = None) -> "SweepExecutor":
        """The (lazily created) executor for a machine preset."""
        name = (machine or self.default_machine).lower()
        with self._executors_lock:
            executor = self._executors.get(name)
        if executor is None:
            from repro.core.executor import SweepExecutor
            from repro.core.runner import ExperimentRunner

            executor = SweepExecutor(
                ExperimentRunner(machine_preset(name)),
                cache_size=self.cache_size,
                cache_dir=self.cache_dir,
                table_cache_dir=self.table_cache_dir,
            )
            with self._executors_lock:
                # Another caller may have built the same preset while we
                # did; keep the first one so stats stay on one object.
                executor = self._executors.setdefault(name, executor)
        return executor

    def _executor_snapshot(self) -> list["SweepExecutor"]:
        with self._executors_lock:
            return list(self._executors.values())

    def machine(self, name: str | None = None) -> "KNLMachine":
        """The machine model behind a preset name."""
        return self.executor(name).machine

    # -- wire level -----------------------------------------------------------
    def resolve(self, query: Query) -> "SweepCell":
        """Turn a wire query into an executable sweep cell.

        All name/range validation happens here — typed errors surface at
        the API boundary instead of poisoning a coalesced batch half-way
        through.  Modelled infeasibility (footprint over HBM capacity,
        DGEMM's failed 256-thread runs) is *not* an error: the cell
        evaluates to a record with ``infeasible_reason`` set.
        """
        from repro.core.configs import ConfigName, make_config
        from repro.core.executor import SweepCell
        from repro.runtime.simos import ensure_mode_supported

        workload = sized_workload(query.workload, query.size_gb)
        config = make_config(ConfigName(query.config))
        machine = self.machine(query.machine)
        try:
            machine.place_threads(query.num_threads)
            ensure_mode_supported(machine, config.mcdram)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        return SweepCell(workload, config, query.num_threads)

    def cache_key(self, query: Query) -> str:
        """The PR-1 content-addressed key of a query's sweep cell."""
        cell = self.resolve(query)
        return self.executor(query.machine).cache_key(cell)

    def predict(self, query: Query) -> PredictionResult:
        """Answer one query (the scalar path — the identity oracle every
        batched or cached response must match bit-for-bit)."""
        cell = self.resolve(query)
        record = self.executor(query.machine).run_cells([cell])[0]
        return PredictionResult.from_record(query, record)

    def predict_many(
        self,
        queries: Sequence[Query],
        cells: Sequence["SweepCell"] | None = None,
    ) -> list[PredictionResult]:
        """Answer many queries as dense per-machine batches.

        Results come back in submission order; each machine preset's
        cells go through its executor as one batch, so misses take the
        columnar engine and duplicates inside the batch are evaluated
        once.  ``cells`` are the queries' :meth:`resolve` cells, index
        for index, where the caller already resolved them (a cell does
        not depend on the predictor that resolved it); by default each
        query is resolved here.
        """
        if cells is None:
            cells = [self.resolve(q) for q in queries]
        by_machine: dict[str, list[int]] = {}
        for i, query in enumerate(queries):
            by_machine.setdefault(query.machine, []).append(i)
        results: list[PredictionResult | None] = [None] * len(queries)
        for machine, indices in by_machine.items():
            records = self.executor(machine).run_cells(
                [cells[i] for i in indices]
            )
            for i, record in zip(indices, records):
                results[i] = PredictionResult.from_record(queries[i], record)
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def predict_grid(self, grid: QueryGrid) -> list[PredictionResult]:
        """Answer a dense grid (workload-major order, see
        :meth:`QueryGrid.expand`)."""
        return self.predict_many(grid.expand())

    # -- object level ---------------------------------------------------------
    def run(
        self, workload: "Workload", config: Any, num_threads: int = 64
    ) -> "RunRecord":
        """One cached evaluation (drop-in for
        :meth:`repro.core.runner.ExperimentRunner.run`)."""
        return self.executor().run(workload, config, num_threads)

    def run_cells(self, cells: Sequence["SweepCell"]) -> list["RunRecord"]:
        """A batch of cells through the default machine's executor."""
        return self.executor().run_cells(cells)

    def compare_configs(
        self,
        workload: "Workload",
        configs: Sequence[Any] | None = None,
        num_threads: int = 64,
    ) -> list["RunRecord"]:
        """The workload under several configurations (default: the
        paper's trio), in the given order."""
        return compare_configs(
            workload, configs, num_threads, runner=self.executor()
        )

    # -- bookkeeping ----------------------------------------------------------
    def stats(self) -> "ExecutorStats":
        """One aggregate over every machine preset's executor.

        Safe to call from any thread (the /metrics aggregation path
        does) — the executor table is snapshotted under its lock.
        """
        from repro.core.executor import ExecutorStats

        totals = [ex.stats() for ex in self._executor_snapshot()]
        return ExecutorStats(
            hits=sum(s.hits for s in totals),
            misses=sum(s.misses for s in totals),
            disk_hits=sum(s.disk_hits for s in totals),
            executed=sum(s.executed for s in totals),
            batches=sum(s.batches for s in totals),
            batched_cells=sum(s.batched_cells for s in totals),
            table_cache_hits=sum(s.table_cache_hits for s in totals),
            table_cache_misses=sum(s.table_cache_misses for s in totals),
            table_cache_stores=sum(s.table_cache_stores for s in totals),
        )


def compare_configs(
    workload: "Workload",
    configs: Sequence[Any] | None = None,
    num_threads: int = 64,
    *,
    runner: Any = None,
) -> list["RunRecord"]:
    """Run a workload under several configurations, in order.

    ``configs`` accepts :class:`~repro.core.configs.ConfigName` members
    or resolved :class:`~repro.core.configs.SystemConfig` objects and
    defaults to the paper's trio.  With no ``runner`` the module-level
    default predictor serves the records (cached, batch-evaluated);
    with one, evaluation preserves the caller's dispatch semantics —
    a :class:`~repro.core.executor.SweepExecutor` takes the cells as one
    batch, a plain runner (or a checking runner) runs them in sequence,
    exactly like the historical per-config loop.
    """
    from repro.core.configs import ConfigName, make_config
    from repro.core.executor import SweepCell, SweepExecutor

    if configs is None:
        configs = ConfigName.paper_trio()
    resolved = [
        make_config(c) if isinstance(c, ConfigName) else c for c in configs
    ]
    if runner is None:
        runner = default_predictor().executor()
    if isinstance(runner, SweepExecutor):
        return runner.run_cells(
            [SweepCell(workload, c, num_threads) for c in resolved]
        )
    return [runner.run(workload, c, num_threads) for c in resolved]


def evaluate_placements(
    profile: "MemoryProfile",
    placements: Sequence[Any],
    num_threads: int = 64,
    *,
    tables: "ModelTables | None" = None,
    machine: "KNLMachine | None" = None,
    memory: Any = None,
) -> list["RunResult"]:
    """Evaluate one profile under many placements as a single columnar
    batch (bit-identical to per-placement ``PerformanceModel.evaluate``).

    ``placements`` holds :class:`~repro.engine.placement.PlacementMix`
    objects or phase-name->mix dicts (the fine-grained form the placement
    optimizer searches).  Pass ``tables`` to reuse a caller's memoized
    :class:`~repro.engine.batch.ModelTables`; otherwise one is built
    from ``machine``/``memory`` (defaulting to the paper's testbed in
    flat mode).
    """
    if tables is None:
        from repro.engine.batch import ModelTables
        from repro.memory.modes import MCDRAMConfig, MemorySystem

        if machine is None:
            machine = machine_preset("knl7210")
        if memory is None:
            memory = MemorySystem(MCDRAMConfig.flat())
        tables = ModelTables(machine, memory)
    return tables.evaluate_batch(
        [(profile, placement, num_threads) for placement in placements]
    )


# -- module-level default ------------------------------------------------------

_default: Predictor | None = None
_default_lock = threading.Lock()


def default_predictor() -> Predictor:
    """The process-wide default predictor (created on first use)."""
    global _default
    with _default_lock:
        if _default is None:
            _default = Predictor()
        return _default


def predict(query: Query) -> PredictionResult:
    """One query through the default predictor."""
    return default_predictor().predict(query)


def predict_many(queries: Sequence[Query]) -> list[PredictionResult]:
    """Many queries through the default predictor, as dense batches."""
    return default_predictor().predict_many(queries)


def predict_grid(grid: QueryGrid) -> list[PredictionResult]:
    """A dense grid through the default predictor."""
    return default_predictor().predict_grid(grid)


def query_cache_key(query: Query) -> str:
    """The content-addressed cache key of a query (default machine set)."""
    return default_predictor().cache_key(query)
