"""The experiment runner.

Executes one workload under one configuration the way the paper's scripts
did: boot (simulated) into the MCDRAM mode, apply the numactl policy,
allocate the problem, run, report the metric.  Two failure paths are
modelled faithfully rather than papered over:

* the allocation can exceed the bound node's capacity (HBM flat with a
  problem over 16 GB) — the record carries ``infeasible_reason`` and a
  ``None`` metric, which the figures render as the paper's missing bars;
* the workload itself can declare a configuration unrunnable
  (DGEMM at 256 threads, paper footnote 1).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from repro.core.configs import ConfigName, SystemConfig, make_config
from repro.engine.perfmodel import PerformanceModel, RunResult
from repro.engine.placement import PlacementMix
from repro.machine.presets import knl7210
from repro.machine.topology import KNLMachine
from repro.memory.numa import OutOfNodeMemory
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.simos import SimulatedOS
from repro.workloads.base import Workload


@dataclass(frozen=True)
class RunRecord:
    """One (workload, configuration, threads) measurement."""

    workload: str
    workload_params: dict[str, Any]
    config: ConfigName
    num_threads: int
    metric: float | None
    metric_name: str
    metric_unit: str
    infeasible_reason: str | None = None
    run_result: RunResult | None = None

    @property
    def feasible(self) -> bool:
        return self.metric is not None


class ExperimentRunner:
    """Runs workloads under named configurations on one machine model."""

    def __init__(self, machine: KNLMachine | None = None) -> None:
        self.machine = machine if machine is not None else knl7210()
        self._local = threading.local()

    # -- internals ---------------------------------------------------------
    def _boot(self, config: SystemConfig) -> tuple[SimulatedOS, PerformanceModel]:
        """Booted OS + model for a configuration, cached per MCDRAM mode.

        Booting a :class:`SimulatedOS` (and with it the memory system's
        cache models) per run dominated the scalar path's setup cost; one
        boot per configuration serves every subsequent run.  The cache is
        thread-local because the OS allocator is mutated during a run
        (``allocation_scope`` restores it afterwards, but not atomically),
        so two threads running through one runner must not share them.

        Machine safety: one runner binds exactly one ``self.machine`` for
        its lifetime and every booted OS is built from it, so interleaving
        runs across two runners (two machines) can never cross-contaminate
        — each runner's boot cache only ever holds its own machine's
        memory systems (``tests/machine/test_conformance.py`` pins this).
        """
        cache = getattr(self._local, "boot", None)
        if cache is None:
            cache = self._local.boot = {}
        entry = cache.get(config.mcdram)
        if entry is None:
            sim_os = SimulatedOS(config.mcdram, machine=self.machine)
            entry = (sim_os, PerformanceModel(self.machine, sim_os.memory))
            cache[config.mcdram] = entry
        return entry

    def _infeasible(
        self, workload: Workload, config: SystemConfig, threads: int, reason: str
    ) -> RunRecord:
        return RunRecord(
            workload=workload.spec.name,
            workload_params=workload.params(),
            config=config.name,
            num_threads=threads,
            metric=None,
            metric_name=workload.spec.metric_name,
            metric_unit=workload.spec.metric_unit,
            infeasible_reason=reason,
        )

    # -- public API ---------------------------------------------------------
    def run(
        self,
        workload: Workload,
        config: SystemConfig | ConfigName,
        num_threads: int = 64,
    ) -> RunRecord:
        """Simulate one run; never raises for modelled failure modes.

        With an observation session active (:mod:`repro.obs`) the run is
        wrapped in a ``runner.run`` span tagged with the workload's
        identity (:meth:`~repro.workloads.base.Workload.obs_tags`) and
        counted in ``runner.runs`` / ``runner.infeasible``; the returned
        record is identical either way.
        """
        if isinstance(config, ConfigName):
            config = make_config(config)
        if not (obs_trace.enabled() or obs_metrics.enabled()):
            return self._run(workload, config, num_threads)
        tags = workload.obs_tags()
        tags["config"] = config.name.value
        tags["threads"] = num_threads
        with obs_trace.span("runner.run", tags):
            record = self._run(workload, config, num_threads)
        labels = {"config": record.config.value}
        obs_metrics.add("runner.runs", 1.0, labels)
        if record.infeasible_reason is not None:
            obs_metrics.add("runner.infeasible", 1.0, labels)
        return record

    def _run(
        self,
        workload: Workload,
        config: SystemConfig,
        num_threads: int,
    ) -> RunRecord:
        sim_os, model = self._boot(config)

        try:
            workload.check_runnable(num_threads)
        except RuntimeError as exc:
            return self._infeasible(workload, config, num_threads, str(exc))

        try:
            with sim_os.allocation_scope():
                allocation = sim_os.malloc(
                    f"{workload.spec.name}-data",
                    workload.footprint_bytes,
                    numactl=config.numactl,
                )
                mix = PlacementMix.from_allocation_split(
                    allocation.split,
                    dram_cached=sim_os.memory.dram_fronted_by_cache,
                )
                result = model.evaluate(
                    workload.profile_cached(), mix, num_threads
                )
        except OutOfNodeMemory as exc:
            return self._infeasible(
                workload,
                config,
                num_threads,
                f"problem does not fit the bound NUMA node: {exc}",
            )
        return RunRecord(
            workload=workload.spec.name,
            workload_params=workload.params(),
            config=config.name,
            num_threads=num_threads,
            metric=workload.metric(result),
            metric_name=workload.spec.metric_name,
            metric_unit=workload.spec.metric_unit,
            run_result=result,
        )
