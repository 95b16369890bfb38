"""Full-study report generation.

Regenerates every exhibit and composes a single text report (the
reproduction's analogue of the paper's evaluation section), optionally
with the energy extension appended.  The CLI's ``report`` subcommand and
the EXPERIMENTS.md workflow are built on this.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.configs import ConfigName
from repro.core.executor import SweepExecutor
from repro.core.runner import ExperimentRunner
from repro.engine.energy import EnergyModel
from repro.util.tables import TextTable
from repro.workloads.base import Workload
from repro.workloads.registry import FROM_GB


@dataclass(frozen=True)
class StudyReport:
    """The composed report."""

    sections: tuple[tuple[str, str], ...]

    def render(self) -> str:
        parts = []
        for title, body in self.sections:
            parts.append(f"{'=' * 72}\n{title}\n{'=' * 72}\n{body}")
        return "\n\n".join(parts)


def generate_report(runner: ExperimentRunner | SweepExecutor | None = None) -> StudyReport:
    """Regenerate every exhibit into one report."""
    # Imported here: repro.figures imports repro.core, so a module-level
    # import would be circular.
    from repro.figures import EXHIBITS

    runner = runner if runner is not None else ExperimentRunner()
    sections: list[tuple[str, str]] = []
    for exhibit_id, generate in EXHIBITS.items():
        exhibit = generate(runner)
        sections.append((f"{exhibit_id}: {exhibit.title}", exhibit.render()))
    return StudyReport(sections=tuple(sections))


def energy_comparison(
    workload: Workload,
    *,
    runner: ExperimentRunner | SweepExecutor | None = None,
    num_threads: int = 64,
) -> TextTable:
    """Time/energy/EDP of a workload under the three configurations.

    An extension beyond the paper's exhibits: the data-movement argument
    of its introduction, quantified.
    """
    runner = runner if runner is not None else ExperimentRunner()
    energy_model = EnergyModel()
    table = TextTable(
        ["config", "time (s)", "memory (J)", "compute (J)", "static (J)",
         "total (J)", "EDP (J*s)"],
        title=(
            f"Energy comparison: {workload.spec.name} "
            f"({workload.footprint_bytes / 1e9:.1f} GB, {num_threads} threads)"
        ),
    )
    profile = workload.profile()
    for config in ConfigName.paper_trio():
        record = runner.run(workload, config, num_threads)
        if record.metric is None or record.run_result is None:
            table.add_row([config.value, "-", "-", "-", "-", "-", "-"])
            continue
        run = record.run_result
        estimate = energy_model.estimate(profile, run)
        table.add_row(
            [
                config.value,
                f"{run.time_s:.3f}",
                f"{estimate.dynamic_memory_j:.2f}",
                f"{estimate.dynamic_compute_j:.2f}",
                f"{estimate.static_j:.2f}",
                f"{estimate.total_j:.2f}",
                f"{estimate.edp(run.time_s):.2f}",
            ]
        )
    return table


def energy_comparison_by_name(
    workload_name: str,
    size_gb: float,
    *,
    runner: ExperimentRunner | SweepExecutor | None = None,
    num_threads: int = 64,
) -> TextTable:
    """CLI-facing wrapper resolving a workload by name and size."""
    if workload_name not in FROM_GB:
        raise KeyError(
            f"unknown workload {workload_name!r}; available: {sorted(FROM_GB)}"
        )
    workload = FROM_GB[workload_name](size_gb)
    return energy_comparison(workload, runner=runner, num_threads=num_threads)
