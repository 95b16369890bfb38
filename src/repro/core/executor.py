"""Parallel sweep execution with a content-addressed run cache.

Every figure in the paper is a sweep — problem size x threads x the three
memory configurations — and every sweep cell is a pure function of
(machine preset, workload parameters, configuration, thread count).  This
module exploits both facts:

* :class:`SweepExecutor` runs batches of cells through one of three
  strategies — ``serial`` (the historical in-order loop), ``threads``
  (a shared :class:`~concurrent.futures.ThreadPoolExecutor`) or
  ``processes`` (a :class:`~concurrent.futures.ProcessPoolExecutor`;
  cells are pickled to workers) — while always returning records in
  submission order, so results are byte-identical to the serial path;
* every cell is keyed by :func:`cache_key`, a SHA-256 over a canonical
  JSON encoding of the machine fingerprint, the workload identity and
  parameters, the resolved configuration and the thread count.  Records
  are memoized in an in-process LRU and, optionally, an on-disk JSON
  cache (one ``<key>.json`` file per record), so repeated sweeps — the
  common case across benchmarks, figures and examples — cost one model
  evaluation each.

The machine fingerprint is part of the key, so switching presets
(e.g. :func:`~repro.machine.presets.knl7210` to ``knl7250``) invalidates
the cache naturally: the old entries simply stop being addressed.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Iterable, Mapping, Sequence
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, TypeVar

from repro.checks.checker import CheckingRunner, CheckMode, check_mode_from_env
from repro.core.configs import ConfigName, SystemConfig, make_config
from repro.core.runner import ExperimentRunner, RunRecord
from repro.engine.batch import BatchEvaluator
from repro.engine.table_cache import TableCache
from repro.engine.perfmodel import PhaseResult, RunResult
from repro.engine.placement import Location, PlacementMix
from repro.machine.topology import KNLMachine
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.profiling import CellProfile, ProfileHook
from repro.util.fileio import replace_text
from repro.workloads.base import Workload

T = TypeVar("T")
R = TypeVar("R")


class ExecutionStrategy(Enum):
    """How a batch of sweep cells is dispatched."""

    SERIAL = "serial"
    THREADS = "threads"
    PROCESSES = "processes"
    BATCH = "batch"

    @classmethod
    def parse(cls, value: "ExecutionStrategy | str") -> "ExecutionStrategy":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            options = ", ".join(s.value for s in cls)
            raise ValueError(
                f"unknown execution strategy {value!r}; expected one of {options}"
            ) from None


@dataclass(frozen=True)
class SweepCell:
    """One (workload, configuration, threads) point of a sweep."""

    workload: Workload
    config: SystemConfig
    num_threads: int


@dataclass(frozen=True)
class ExecutorStats:
    """Cumulative cache counters for one :class:`SweepExecutor`.

    Counters accumulate in the **submitting process** under every
    strategy: cache lookups happen before dispatch and results are
    memoized on return, so worker threads and worker processes never
    carry executor state.  ``--jobs N`` therefore reports one aggregate
    — identical for ``serial``, ``threads`` and ``processes`` on the
    same batch sequence (``tests/core/test_executor.py::
    TestStatsConsistencyAcrossStrategies``).  Counter updates are
    lock-protected, so concurrent ``run_cells`` calls through the
    ``threads`` strategy (e.g. the sensitivity analysis fanning out over
    one shared executor) never lose increments.
    """

    hits: int
    misses: int
    disk_hits: int
    executed: int
    #: Miss batches that went through the columnar evaluator, and the
    #: constituent cells they covered.  A coalesced batch of N cells
    #: counts N in ``batched_cells`` (and N in ``misses``/``executed``
    #: like any other miss), never 1 — per-cell accounting is identical
    #: across strategies, which is why these two stay out of equality
    #: comparisons (``compare=False``): the serial strategy is
    #: batch-eligible while multi-job thread/process pools are not.
    batches: int = field(default=0, compare=False)
    batched_cells: int = field(default=0, compare=False)
    #: Persistent-table-cache traffic (loads answered from disk, misses
    #: that rebuilt, snapshots written), populated only when a table
    #: cache is configured.  Excluded from equality for the same reason
    #: as the batch counters: only batch-eligible strategies touch the
    #: table cache.
    table_cache_hits: int = field(default=0, compare=False)
    table_cache_misses: int = field(default=0, compare=False)
    table_cache_stores: int = field(default=0, compare=False)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without a model evaluation."""
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        return (
            f"{self.lookups} lookups: {self.hits} hits "
            f"({self.hit_rate:.1%}, {self.disk_hits} from disk), "
            f"{self.executed} model runs"
        )


# -- cache keys ---------------------------------------------------------------

# Fingerprints are memoized per machine *object*: presets are immutable
# and few, but peak_dp_gflops walks every core on every call, which is
# measurable when a serving layer keys thousands of queries per second.
# The strong reference in the value pins the id against reuse.
_MACHINE_FINGERPRINTS: dict[int, tuple[KNLMachine, dict[str, Any]]] = {}


def machine_fingerprint(machine: KNLMachine) -> dict[str, Any]:
    """The preset-identifying facts that influence a simulated run.

    Machines built from a registry spec additionally contribute their
    memory-tier and mode facts (:func:`repro.machine.registry.
    fingerprint_extras`) — except the KNL presets, whose tiers match the
    historical defaults and whose keys must stay byte-identical to every
    on-disk cache written before the registry existed.
    """
    entry = _MACHINE_FINGERPRINTS.get(id(machine))
    if entry is not None and entry[0] is machine:
        return entry[1]
    fingerprint = {
        "name": machine.name,
        "num_cores": machine.num_cores,
        "smt_per_core": machine.smt_per_core,
        "frequency_ghz": machine.frequency_ghz,
        "tile_l2_bytes": machine.tile_l2_bytes,
        "cluster_mode": machine.mesh.cluster_mode.value,
        "peak_dp_gflops": machine.peak_dp_gflops,
    }
    if machine.spec is not None:
        from repro.machine.registry import fingerprint_extras

        fingerprint.update(fingerprint_extras(machine.spec))
    _MACHINE_FINGERPRINTS[id(machine)] = (machine, fingerprint)
    return fingerprint


def config_fingerprint(config: SystemConfig) -> dict[str, Any]:
    """The configuration facts that influence a simulated run."""
    return {
        "name": config.name.value,
        "mode": config.mcdram.mode.value,
        "cache_fraction": config.mcdram.cache_fraction,
        "cache_associativity": config.mcdram.cache_associativity,
        "numactl": config.numactl,
    }


def cache_key(
    machine: KNLMachine,
    workload: Workload,
    config: SystemConfig,
    num_threads: int,
    *,
    check: str | None = None,
) -> str:
    """Deterministic content hash of one sweep cell.

    Two cells share a key exactly when the machine preset, the workload
    identity and parameters, the resolved configuration, the thread
    count and the check mode all agree.  ``check`` is the active
    invariant-checking mode (``"warn"``/``"raise"``) or ``None``; it is
    part of the key so a ``--check`` run never reuses a record that was
    produced — and cached, possibly on disk — without being audited.
    Unchecked keys are byte-identical to the historical format.
    """
    payload = {
        "machine": machine_fingerprint(machine),
        "workload": {"name": workload.spec.name, "params": workload.params()},
        "config": config_fingerprint(config),
        "num_threads": int(num_threads),
    }
    if check is not None:
        payload["check"] = str(check)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Bound on :data:`_CELL_KEYS` (the run cache's default capacity).
CELL_KEY_MEMO_SIZE = 4096

# Cell keys are memoized per (machine, workload, config) *object*, thread
# count and check mode: the serving layer and the planner key the same
# memoized sized_workload/make_config objects over and over, and each
# key is a JSON encoding plus a SHA-256.  Like the fingerprints, the
# strong references in the value pin the ids against reuse; workloads
# are fixed at construction (see Workload.profile_cached).  Insertion
# order makes the first entry the oldest, evicted first.
_CELL_KEYS: dict[
    tuple[int, int, int, int, str | None],
    tuple[KNLMachine, Workload, SystemConfig, str],
] = {}
_CELL_KEYS_LOCK = threading.Lock()


# -- record (de)serialization -------------------------------------------------

def record_to_json(record: RunRecord) -> dict[str, Any]:
    """A JSON-ready encoding of a :class:`RunRecord` (full fidelity)."""
    run = record.run_result
    run_json = None
    if run is not None:
        run_json = {
            "workload": run.workload,
            "placement": [
                [loc.value, frac] for loc, frac in run.placement.fractions
            ],
            "num_threads": run.num_threads,
            "phase_results": [
                {
                    "name": p.name,
                    "time_ns": p.time_ns,
                    "memory_time_ns": p.memory_time_ns,
                    "compute_time_ns": p.compute_time_ns,
                    "sync_factor": p.sync_factor,
                    "achieved_bandwidth": p.achieved_bandwidth,
                    "effective_latency_ns": p.effective_latency_ns,
                }
                for p in run.phase_results
            ],
        }
    return {
        "workload": record.workload,
        "workload_params": record.workload_params,
        "config": record.config.value,
        "num_threads": record.num_threads,
        "metric": record.metric,
        "metric_name": record.metric_name,
        "metric_unit": record.metric_unit,
        "infeasible_reason": record.infeasible_reason,
        "run_result": run_json,
    }


def record_from_json(data: Mapping[str, Any]) -> RunRecord:
    """Rebuild a :class:`RunRecord` from :func:`record_to_json` output."""
    run_json = data.get("run_result")
    run = None
    if run_json is not None:
        run = RunResult(
            workload=run_json["workload"],
            placement=PlacementMix(
                tuple(
                    (Location(loc), float(frac))
                    for loc, frac in run_json["placement"]
                )
            ),
            num_threads=int(run_json["num_threads"]),
            phase_results=tuple(
                PhaseResult(**phase) for phase in run_json["phase_results"]
            ),
        )
    return RunRecord(
        workload=data["workload"],
        workload_params=dict(data["workload_params"]),
        config=ConfigName(data["config"]),
        num_threads=int(data["num_threads"]),
        metric=data["metric"],
        metric_name=data["metric_name"],
        metric_unit=data["metric_unit"],
        infeasible_reason=data.get("infeasible_reason"),
        run_result=run,
    )


# -- the cache ----------------------------------------------------------------

class RunCache:
    """In-process LRU over run records, optionally backed by a JSON
    directory (one ``<key>.json`` file per record)."""

    def __init__(
        self,
        max_entries: int = 4096,
        cache_dir: str | os.PathLike[str] | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.cache_dir = (
            pathlib.Path(cache_dir) if cache_dir is not None else None
        )
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._lru: OrderedDict[str, RunRecord] = OrderedDict()
        self._lock = threading.Lock()
        self.disk_hits = 0

    def __len__(self) -> int:
        return len(self._lru)

    def _disk_path(self, key: str) -> pathlib.Path | None:
        return None if self.cache_dir is None else self.cache_dir / f"{key}.json"

    def get(self, key: str) -> RunRecord | None:
        with self._lock:
            record = self._lru.get(key)
            if record is not None:
                self._lru.move_to_end(key)
                return record
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            record = record_from_json(json.loads(path.read_text()))
        except (ValueError, KeyError, TypeError):
            return None  # corrupt entry: treat as a miss, it will be rewritten
        with self._lock:
            self.disk_hits += 1
            self._store(key, record)
        return record

    def put(self, key: str, record: RunRecord) -> None:
        with self._lock:
            self._store(key, record)
        path = self._disk_path(key)
        if path is not None:
            replace_text(path, json.dumps(record_to_json(record), sort_keys=True))

    def _store(self, key: str, record: RunRecord) -> None:
        self._lru[key] = record
        self._lru.move_to_end(key)
        while len(self._lru) > self.max_entries:
            self._lru.popitem(last=False)


# -- worker entry point (must be module-level for process pickling) -----------

def _run_cell(runner: ExperimentRunner, cell: SweepCell) -> tuple[RunRecord, int]:
    """Evaluate one cell, returning the record and its wall time (ns).

    Under the ``threads`` strategy the ``executor.cell`` span runs on the
    worker thread, so traces show cells stacked per pool lane; under
    ``processes`` the worker has its own (normally disabled) observability
    state and only the submitting process's executor-level activity is
    traced.
    """
    start = time.perf_counter_ns()
    with obs_trace.span(
        "executor.cell",
        tags=(
            dict(
                cell.workload.obs_tags(),
                config=cell.config.name.value,
                threads=cell.num_threads,
            )
            if obs_trace.enabled()
            else None
        ),
    ):
        record = runner.run(cell.workload, cell.config, cell.num_threads)
    return record, time.perf_counter_ns() - start


# -- the executor -------------------------------------------------------------

class SweepExecutor:
    """Runs sweep cells through a strategy, memoizing by content hash.

    Duck-compatible with :class:`ExperimentRunner` for the read paths the
    figures use (``run`` and ``machine``), so any generator that accepts a
    runner accepts an executor.

    ``strategy`` defaults to ``serial`` when ``jobs == 1`` and
    ``threads`` otherwise.  Record order out of :meth:`run_cells` always
    equals submission order, whatever the strategy.
    """

    def __init__(
        self,
        runner: "ExperimentRunner | CheckingRunner | None" = None,
        *,
        jobs: int = 1,
        strategy: ExecutionStrategy | str | None = None,
        cache_size: int = 4096,
        cache_dir: str | os.PathLike[str] | None = None,
        table_cache_dir: str | os.PathLike[str] | None = None,
        profile_hooks: Sequence[ProfileHook] = (),
        check: "CheckMode | str | None" = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.runner = runner if runner is not None else ExperimentRunner()
        if check is not None and not isinstance(self.runner, CheckingRunner):
            self.runner = CheckingRunner(self.runner, mode=check)
        self.jobs = jobs
        if strategy is None:
            strategy = (
                ExecutionStrategy.SERIAL if jobs == 1 else ExecutionStrategy.THREADS
            )
        self.strategy = ExecutionStrategy.parse(strategy)
        self.cache = RunCache(cache_size, cache_dir)
        # Built ModelTables persist beside run results: with an on-disk
        # run cache at <cache_dir>, tables default to <cache_dir>/tables
        # (docs/ENGINE.md); pass table_cache_dir to split them.
        if table_cache_dir is None and cache_dir is not None:
            table_cache_dir = pathlib.Path(cache_dir) / "tables"
        self.table_cache = (
            TableCache(table_cache_dir) if table_cache_dir is not None else None
        )
        self.profile_hooks: list[ProfileHook] = list(profile_hooks)
        self._pool: Executor | None = None
        self._batch_evaluator: BatchEvaluator | None = None
        self._stats_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._executed = 0
        self._batches = 0
        self._batched_cells = 0

    def add_profile_hook(self, hook: ProfileHook) -> None:
        """Register a per-cell profiling callback (:mod:`repro.obs.profiling`).

        After every batch the hook receives one
        :class:`~repro.obs.profiling.CellProfile` per submitted cell —
        cache-served and model-evaluated alike — in submission order.
        """
        self.profile_hooks.append(hook)

    # -- runner compatibility -------------------------------------------------
    @property
    def machine(self) -> KNLMachine:
        return self.runner.machine

    @property
    def checking(self) -> "CheckingRunner | None":
        """The active invariant checker, when one wraps the runner."""
        return self.runner if isinstance(self.runner, CheckingRunner) else None

    def run(
        self,
        workload: Workload,
        config: SystemConfig | ConfigName,
        num_threads: int = 64,
    ) -> RunRecord:
        """One cached cell (drop-in for :meth:`ExperimentRunner.run`)."""
        resolved = make_config(config) if isinstance(config, ConfigName) else config
        return self.run_cells([SweepCell(workload, resolved, num_threads)])[0]

    # -- batch execution ------------------------------------------------------
    def run_cells(self, cells: Sequence[SweepCell]) -> list[RunRecord]:
        """Run a batch, returning records in submission order.

        Cells are first deduplicated by cache key (a duplicate inside the
        batch counts as a hit and is evaluated once), then the remaining
        misses are dispatched through the configured strategy.
        """
        results: list[RunRecord | None] = [None] * len(cells)
        cached_flags = [True] * len(cells)
        wall_ns = [0] * len(cells)
        indices_for: dict[str, list[int]] = {}
        missing: list[tuple[str, SweepCell]] = []
        batch_hits = batch_misses = 0
        with obs_trace.span(
            "executor.run_cells",
            tags=(
                {"cells": len(cells), "strategy": self.strategy.value}
                if obs_trace.enabled()
                else None
            ),
        ):
            for i, cell in enumerate(cells):
                key = self.cache_key(cell)
                cached = self.cache.get(key)
                if cached is not None:
                    batch_hits += 1
                    results[i] = cached
                    continue
                if key in indices_for:
                    batch_hits += 1
                else:
                    batch_misses += 1
                    indices_for[key] = []
                    missing.append((key, cell))
                indices_for[key].append(i)
            computed = self._execute([cell for _, cell in missing])
            for (key, _), (record, elapsed_ns) in zip(missing, computed):
                self.cache.put(key, record)
                first, *duplicates = indices_for[key]
                results[first] = record
                cached_flags[first] = False
                wall_ns[first] = elapsed_ns
                for i in duplicates:
                    results[i] = record
        with self._stats_lock:
            self._hits += batch_hits
            self._misses += batch_misses
            self._executed += len(computed)
        assert all(r is not None for r in results)
        if obs_metrics.enabled():
            obs_metrics.add("executor.cache_hits", batch_hits)
            obs_metrics.add("executor.cache_misses", batch_misses)
            obs_metrics.add("executor.cells_executed", len(computed))
            stats = self.stats()
            obs_metrics.set_gauge("executor.disk_hits", stats.disk_hits)
            obs_metrics.set_gauge("executor.hit_rate", stats.hit_rate)
        if self.profile_hooks or obs_metrics.enabled():
            self._emit_profiles(cells, results, cached_flags, wall_ns)
        return results  # type: ignore[return-value]

    def _emit_profiles(
        self,
        cells: Sequence[SweepCell],
        results: Sequence[RunRecord | None],
        cached_flags: Sequence[bool],
        wall_ns: Sequence[int],
    ) -> None:
        """Deliver one :class:`CellProfile` per cell, in submission order."""
        for cell, record, was_cached, elapsed_ns in zip(
            cells, results, cached_flags, wall_ns
        ):
            assert record is not None
            profile = CellProfile(
                workload=record.workload,
                tags=cell.workload.obs_tags(),
                config=record.config.value,
                num_threads=record.num_threads,
                cached=was_cached,
                wall_ns=elapsed_ns,
                metric=record.metric,
                infeasible_reason=record.infeasible_reason,
            )
            for hook in self.profile_hooks:
                hook(profile)
            obs_metrics.add(
                "executor.cells",
                1.0,
                {"source": "cache" if was_cached else "model"},
            )

    def cache_key(self, cell: SweepCell) -> str:
        """:func:`cache_key` of ``cell`` on this executor's machine and
        check mode, memoized per object (see :data:`_CELL_KEYS`)."""
        machine = self.runner.machine
        checking = self.checking
        check = checking.mode.value if checking is not None else None
        workload, config = cell.workload, cell.config
        memo = (id(machine), id(workload), id(config), cell.num_threads, check)
        entry = _CELL_KEYS.get(memo)
        if entry is not None:
            return entry[3]
        key = cache_key(machine, workload, config, cell.num_threads, check=check)
        with _CELL_KEYS_LOCK:
            while len(_CELL_KEYS) >= CELL_KEY_MEMO_SIZE:
                del _CELL_KEYS[next(iter(_CELL_KEYS))]
            _CELL_KEYS[memo] = (machine, workload, config, key)
        return key

    def _execute(
        self, cells: Sequence[SweepCell]
    ) -> list[tuple[RunRecord, int]]:
        if not cells:
            return []
        if self._batch_eligible(cells):
            return self._execute_batch(cells)
        if (
            self.strategy is ExecutionStrategy.SERIAL
            or self.jobs == 1
            or len(cells) == 1
        ):
            return [_run_cell(self.runner, cell) for cell in cells]
        pool = self._ensure_pool()
        futures = [pool.submit(_run_cell, self.runner, cell) for cell in cells]
        return [f.result() for f in futures]

    def _batch_eligible(self, cells: Sequence[SweepCell]) -> bool:
        """Whether a miss batch can go through the columnar evaluator.

        The batch path produces bit-identical records but aggregates
        observability (one ``batch.evaluate`` span instead of per-cell
        ``executor.cell`` / ``perfmodel.run`` spans), so it only engages
        where per-cell dispatch semantics are not part of the contract:
        a plain :class:`ExperimentRunner` (a :class:`CheckingRunner`
        needs the per-run hook), at least two cells, and a serial-ish
        dispatch (the ``threads``/``processes`` strategies with
        ``jobs > 1`` keep per-cell spans stacked on pool lanes).
        """
        return (
            self.checking is None
            and len(cells) >= 2
            and type(self.runner) is ExperimentRunner
            and (
                self.strategy in (ExecutionStrategy.SERIAL, ExecutionStrategy.BATCH)
                or self.jobs == 1
            )
        )

    def _execute_batch(
        self, cells: Sequence[SweepCell]
    ) -> list[tuple[RunRecord, int]]:
        if self._batch_evaluator is None:
            self._batch_evaluator = BatchEvaluator(
                self.runner.machine, table_cache=self.table_cache
            )
        start = time.perf_counter_ns()
        result = self._batch_evaluator.evaluate(
            [(c.workload, c.config, c.num_threads) for c in cells]
        )
        records = result.records()
        per_cell_ns = (time.perf_counter_ns() - start) // len(cells)
        with self._stats_lock:
            self._batches += 1
            self._batched_cells += len(cells)
        if obs_metrics.enabled():
            obs_metrics.add("executor.batches", 1.0)
            obs_metrics.add("executor.batched_cells", float(len(cells)))
        return [(record, per_cell_ns) for record in records]

    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            if self.strategy is ExecutionStrategy.PROCESSES:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            else:
                self._pool = ThreadPoolExecutor(max_workers=self.jobs)
        return self._pool

    # -- bookkeeping ----------------------------------------------------------
    def stats(self) -> ExecutorStats:
        """One aggregate over everything this executor ran, whatever the
        strategy (see :class:`ExecutorStats` for the exact semantics)."""
        with self._stats_lock:
            tables = self.table_cache
            return ExecutorStats(
                hits=self._hits,
                misses=self._misses,
                disk_hits=self.cache.disk_hits,
                executed=self._executed,
                batches=self._batches,
                batched_cells=self._batched_cells,
                table_cache_hits=tables.hits if tables is not None else 0,
                table_cache_misses=tables.misses if tables is not None else 0,
                table_cache_stores=tables.stores if tables is not None else 0,
            )

    def reset_stats(self) -> None:
        with self._stats_lock:
            self._hits = self._misses = self._executed = 0
            self._batches = self._batched_cells = 0
            self.cache.disk_hits = 0
            if self.table_cache is not None:
                self.table_cache.hits = 0
                self.table_cache.misses = 0
                self.table_cache.stores = 0

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def as_executor(
    runner: "ExperimentRunner | CheckingRunner | SweepExecutor",
) -> SweepExecutor:
    """Wrap a plain runner in a serial executor; pass executors through."""
    if isinstance(runner, SweepExecutor):
        return runner
    return SweepExecutor(runner)


def executor_from_env(
    runner: ExperimentRunner | None = None,
    env: Mapping[str, str] | None = None,
) -> "ExperimentRunner | SweepExecutor":
    """Wrap ``runner`` per the ``REPRO_JOBS`` / ``REPRO_EXECUTOR`` /
    ``REPRO_CACHE_DIR`` / ``REPRO_TABLE_CACHE`` / ``REPRO_CHECK``
    environment variables; unchanged when none are set.

    This is how the test and benchmark harnesses opt whole suites into
    parallel execution (e.g. ``make test-fast``) or invariant checking
    without touching call sites.
    """
    env = env if env is not None else os.environ
    jobs = env.get("REPRO_JOBS", "").strip()
    strategy = env.get("REPRO_EXECUTOR", "").strip()
    cache_dir = env.get("REPRO_CACHE_DIR", "").strip()
    table_cache_dir = env.get("REPRO_TABLE_CACHE", "").strip()
    check = check_mode_from_env(env)
    base = runner if runner is not None else ExperimentRunner()
    if not (jobs or strategy or cache_dir or table_cache_dir or check):
        return base
    return SweepExecutor(
        base,
        jobs=int(jobs) if jobs else 1,
        strategy=strategy or None,
        cache_dir=cache_dir or None,
        table_cache_dir=table_cache_dir or None,
        check=check,
    )


def ordered_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    jobs: int = 1,
) -> list[R]:
    """Apply ``fn`` over ``items`` preserving order, optionally in a
    thread pool (used by flows whose work units are closures and so
    cannot cross a process boundary, e.g. the sensitivity analysis)."""
    items = list(items)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))
