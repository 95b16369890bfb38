"""Sensitivity analysis: do the paper's conclusions survive calibration
uncertainty?

The reproduction calibrates device characteristics to the paper's
measurements.  Those measurements carry error, and other machines differ;
Section VI claims the conclusions "can be generalized to other
heterogeneous memory systems with similar characteristics".  This module
tests that claim mechanically: perturb the calibrated device parameters,
re-run the key comparisons, and report which conclusions (if any) flip.

A *conclusion* is a named boolean over simulated results, e.g.
"HBM beats DRAM for MiniFE at 64 threads".  The default set covers the
paper's six contributions.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.core.configs import ConfigName
from repro.machine.topology import KNLMachine
from repro.memory.device import MemoryDevice
from repro.memory.dram import ddr4_archer
from repro.memory.mcdram import mcdram_archer
from repro.memory.modes import MCDRAMConfig, MemorySystem
from repro.engine.batch import ModelTables
from repro.engine.placement import Location, PlacementMix
from repro.util.validation import check_positive
from repro.workloads.base import Workload
from repro.workloads.gups import GUPS
from repro.workloads.minife import MiniFE
from repro.workloads.xsbench import XSBench


@dataclass(frozen=True)
class PerturbedDevices:
    """One perturbation of the calibrated device pair."""

    label: str
    dram: MemoryDevice
    mcdram: MemoryDevice


def scale_device(
    device: MemoryDevice,
    *,
    latency: float = 1.0,
    bandwidth: float = 1.0,
    random_cap: float = 1.0,
) -> MemoryDevice:
    """A copy of ``device`` with scaled characteristics."""
    check_positive("latency", latency)
    check_positive("bandwidth", bandwidth)
    check_positive("random_cap", random_cap)
    return dataclasses.replace(
        device,
        idle_latency_ns=device.idle_latency_ns * latency,
        peak_bandwidth=device.peak_bandwidth * bandwidth,
        random_bandwidth_cap=device.random_bandwidth_cap * random_cap,
    )


def default_perturbations(spread: float = 0.2) -> list[PerturbedDevices]:
    """Baseline plus one-factor-at-a-time ±spread on each characteristic."""
    if not 0 < spread < 1:
        raise ValueError(f"spread must be in (0, 1), got {spread}")
    dram, mcdram = ddr4_archer(), mcdram_archer()
    out = [PerturbedDevices("baseline", dram, mcdram)]
    for sign, tag in ((1 + spread, f"+{spread:.0%}"), (1 - spread, f"-{spread:.0%}")):
        out.append(
            PerturbedDevices(
                f"hbm-latency {tag}", dram, scale_device(mcdram, latency=sign)
            )
        )
        out.append(
            PerturbedDevices(
                f"hbm-bandwidth {tag}", dram, scale_device(mcdram, bandwidth=sign)
            )
        )
        out.append(
            PerturbedDevices(
                f"dram-bandwidth {tag}", scale_device(dram, bandwidth=sign), mcdram
            )
        )
        out.append(
            PerturbedDevices(
                f"random-caps {tag}",
                scale_device(dram, random_cap=sign),
                scale_device(mcdram, random_cap=sign),
            )
        )
    return out


@dataclass(frozen=True)
class ConclusionCheck:
    """One of the paper's conclusions as a testable predicate.

    ``predicate`` receives a metric function
    ``metric(workload, config_name, threads) -> float | None`` and
    returns True when the conclusion holds.
    """

    name: str
    predicate: Callable[[Callable[[Workload, ConfigName, int], float | None]], bool]


def _safe_ratio(a: float | None, b: float | None) -> float:
    if a is None or b is None or b == 0:
        return float("nan")
    return a / b


def paper_conclusions() -> list[ConclusionCheck]:
    """The headline conclusions of Section VI."""
    minife = MiniFE.from_matrix_gb(7.2)
    gups = GUPS.from_table_gb(8.0)
    xsbench = XSBench.from_problem_gb(11.3)
    return [
        ConclusionCheck(
            "sequential-prefers-hbm",
            lambda m: _safe_ratio(
                m(minife, ConfigName.HBM, 64), m(minife, ConfigName.DRAM, 64)
            )
            > 1.5,
        ),
        ConclusionCheck(
            "random-prefers-dram",
            lambda m: _safe_ratio(
                m(gups, ConfigName.DRAM, 64), m(gups, ConfigName.HBM, 64)
            )
            >= 1.0,
        ),
        ConclusionCheck(
            "cache-mode-between",
            lambda m: (
                (m(minife, ConfigName.DRAM, 64) or 0)
                < (m(minife, ConfigName.CACHE, 64) or 0)
                < (m(minife, ConfigName.HBM, 64) or float("inf"))
            ),
        ),
        ConclusionCheck(
            "smt-rescues-hbm-for-xsbench",
            lambda m: _safe_ratio(
                m(xsbench, ConfigName.HBM, 256), m(xsbench, ConfigName.DRAM, 256)
            )
            > 1.0,
        ),
        ConclusionCheck(
            "dram-best-for-xsbench-at-1tpc",
            lambda m: _safe_ratio(
                m(xsbench, ConfigName.DRAM, 64), m(xsbench, ConfigName.HBM, 64)
            )
            > 1.0,
        ),
    ]


@dataclass(frozen=True)
class SensitivityResult:
    """Outcome of one (perturbation, conclusion) cell."""

    perturbation: str
    conclusion: str
    holds: bool


class SensitivityAnalysis:
    """Run the conclusion checks under perturbed device parameters."""

    def __init__(self, machine: KNLMachine | None = None) -> None:
        from repro.machine.presets import knl7210

        self.machine = machine if machine is not None else knl7210()

    def _metric_function(
        self, devices: PerturbedDevices
    ) -> Callable[[Workload, ConfigName, int], float | None]:
        flat = MemorySystem(
            MCDRAMConfig.flat(), dram=devices.dram, mcdram=devices.mcdram
        )
        cache = MemorySystem(
            MCDRAMConfig.cache(), dram=devices.dram, mcdram=devices.mcdram
        )
        # Hoisted columnar tables instead of per-call PerformanceModel
        # plumbing: device latencies, random caps, cache survival and TLB
        # tiers are memoized across every metric call of a perturbation
        # (conclusions repeatedly probe the same small point set), and
        # evaluated points are memoized outright.  evaluate_batch is
        # bit-identical to PerformanceModel.evaluate, so the predicates
        # see exactly the values the per-point loop produced.
        flat_tables = ModelTables(self.machine, flat)
        cache_tables = ModelTables(self.machine, cache)
        memo: dict[tuple[int, ConfigName, int], float | None] = {}

        def metric(
            workload: Workload, config: ConfigName, threads: int
        ) -> float | None:
            key = (id(workload), config, threads)
            if key in memo:
                return memo[key]
            if config is ConfigName.HBM:
                if workload.footprint_bytes > devices.mcdram.capacity_bytes:
                    memo[key] = None
                    return None
                tables, location = flat_tables, Location.HBM
            elif config is ConfigName.DRAM:
                tables, location = flat_tables, Location.DRAM
            else:
                tables, location = cache_tables, Location.DRAM_CACHED
            run = tables.evaluate_batch(
                [(workload.profile(), PlacementMix.pure(location), threads)]
            )[0]
            value = workload.metric(run)
            memo[key] = value
            return value

        return metric

    def run(
        self,
        perturbations: Sequence[PerturbedDevices] | None = None,
        conclusions: Sequence[ConclusionCheck] | None = None,
    ) -> list[SensitivityResult]:
        """Evaluate every (perturbation, conclusion) cell, in
        perturbation-major order."""
        if perturbations is None:
            perturbations = default_perturbations()
        conclusion_list = (
            list(conclusions) if conclusions is not None else paper_conclusions()
        )
        results = []
        for devices in perturbations:
            metric = self._metric_function(devices)
            results.extend(
                SensitivityResult(
                    perturbation=devices.label,
                    conclusion=check.name,
                    holds=bool(check.predicate(metric)),
                )
                for check in conclusion_list
            )
        return results

    @staticmethod
    def flipped(results: list[SensitivityResult]) -> list[SensitivityResult]:
        """Conclusions that fail under some perturbation."""
        return [r for r in results if not r.holds]
