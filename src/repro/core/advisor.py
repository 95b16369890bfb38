"""Model-driven placement advisor.

Answers the question the paper poses for programmers: *given this
application and problem size, which memory configuration should I use,
and what improvement should I expect?*  The advisor simply runs the
performance model under every candidate configuration (the honest version
of the paper's guidelines) and attaches the matching Section-VI guideline
text as the explanation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.configs import ConfigName, make_config
from repro.core.guidelines import Guideline, applicable_guidelines
from repro.core.metrics import improvement
from repro.core.runner import ExperimentRunner, RunRecord
from repro.workloads.base import Workload


@dataclass(frozen=True)
class Recommendation:
    """The advisor's verdict for one workload instance."""

    workload: str
    num_threads: int
    best: ConfigName
    expected_improvement_vs_dram: float | None
    records: tuple[RunRecord, ...]
    guidelines: tuple[Guideline, ...]

    def describe(self) -> str:
        lines = [
            f"{self.workload} @ {self.num_threads} threads: "
            f"use {self.best.value}"
        ]
        if self.expected_improvement_vs_dram is not None:
            lines[0] += (
                f" (expected {self.expected_improvement_vs_dram:.2f}x vs DRAM)"
            )
        for rec in self.records:
            value = "-" if rec.metric is None else f"{rec.metric:.4g}"
            note = f"  [{rec.infeasible_reason}]" if rec.infeasible_reason else ""
            lines.append(f"  {rec.config.value:<12} {value}{note}")
        for g in self.guidelines:
            lines.append(f"  guideline[{g.rule_id}]: {g.advice}")
        return "\n".join(lines)


class PlacementAdvisor:
    """Recommends a memory configuration for a workload instance."""

    def __init__(
        self,
        runner: ExperimentRunner | None = None,
        *,
        candidates: tuple[ConfigName, ...] | None = None,
    ) -> None:
        self.runner = runner if runner is not None else ExperimentRunner()
        self.candidates = (
            candidates if candidates is not None else ConfigName.paper_trio()
        )

    def recommend(self, workload: Workload, num_threads: int = 64) -> Recommendation:
        """Evaluate every candidate configuration and pick the best feasible."""
        # Imported lazily: repro.api resolves core modules at import time.
        from repro.api import InfeasibleConfigError, compare_configs

        records = tuple(
            compare_configs(
                workload,
                tuple(make_config(name) for name in self.candidates),
                num_threads,
                runner=self.runner,
            )
        )
        feasible = [r for r in records if r.feasible]
        if not feasible:
            # An InfeasibleConfigError IS a RuntimeError (the historical
            # contract of this method).
            raise InfeasibleConfigError(
                f"no feasible configuration for {workload.spec.name} "
                f"({workload.footprint_bytes / 1e9:.1f} GB)"
            )
        best = max(feasible, key=lambda r: r.metric)  # type: ignore[arg-type]
        dram = next((r for r in records if r.config is ConfigName.DRAM), None)
        profile = workload.profile()
        placement = self.runner.machine.place_threads(num_threads)
        matched = applicable_guidelines(
            profile.dominant_pattern,
            workload.footprint_bytes,
            placement.max_threads_per_core,
            hbm_capacity_bytes=self.runner.machine.near_device().capacity_bytes,
        )
        return Recommendation(
            workload=workload.spec.name,
            num_threads=num_threads,
            best=best.config,
            expected_improvement_vs_dram=improvement(
                best.metric, None if dram is None else dram.metric
            ),
            records=records,
            guidelines=tuple(matched),
        )
