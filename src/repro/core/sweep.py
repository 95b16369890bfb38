"""Parameter sweeps: the two axes every figure varies.

* :func:`size_sweep` — problem size at fixed threads (Fig. 2, Fig. 4),
* :func:`thread_sweep` — OpenMP threads at fixed size (Fig. 5, Fig. 6).

Both accept either a plain :class:`ExperimentRunner` (wrapped in a
private executor) or a :class:`~repro.core.executor.SweepExecutor` (the
content-addressed run cache plus batch dispatch).  Record order is
identical either way: x-major, configuration-minor.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.checks.checker import check_sweep
from repro.core.configs import ConfigName, SystemConfig, make_config
from repro.core.executor import SweepCell, SweepExecutor, as_executor
from repro.core.results import ResultSet
from repro.core.runner import ExperimentRunner, RunRecord
from repro.workloads.base import Workload


def _check_sweep_batch(
    executor: SweepExecutor,
    cells: Sequence[SweepCell],
    records: Sequence[RunRecord],
    axis: str,
) -> None:
    """Evaluate the sweep-scope invariants when checking is active.

    Run-scope checks already happened cell by cell inside the executor's
    :class:`~repro.checks.checker.CheckingRunner` (cache misses only —
    cached records were audited when first computed); the cross-cell
    orderings need the whole batch, so they run here, after it.
    """
    checking = executor.checking
    if checking is None:
        return
    report = check_sweep(
        [
            (cell.workload, cell.config, cell.num_threads, record)
            for cell, record in zip(cells, records)
        ],
        machine=executor.machine,
        axis=axis,
    )
    checking.handle_report(report)


def resolve_configs(
    configs: Sequence[SystemConfig | ConfigName] | None,
) -> list[SystemConfig]:
    """Validate and resolve the sweep's configuration axis once.

    Names become full :class:`SystemConfig` objects up front (instead of
    per cell inside the runner), and duplicates — which would silently
    shadow each other inside a :class:`~repro.core.results.ResultSet` —
    are rejected.
    """
    entries = list(configs) if configs is not None else list(ConfigName.paper_trio())
    if not entries:
        raise ValueError("configs must be non-empty")
    resolved = [
        make_config(entry) if isinstance(entry, ConfigName) else entry
        for entry in entries
    ]
    seen: set[ConfigName] = set()
    for config in resolved:
        if config.name in seen:
            raise ValueError(
                f"duplicate configuration {config.name.value!r} in sweep"
            )
        seen.add(config.name)
    return resolved


def _check_axis(label: str, values: Sequence[float | int]) -> None:
    seen: set[float] = set()
    for value in values:
        point = float(value)
        if point in seen:
            raise ValueError(f"duplicate sweep point {label}={value!r}")
        seen.add(point)


def size_sweep(
    runner: ExperimentRunner | SweepExecutor,
    factory: Callable[[float], Workload],
    sizes_gb: Sequence[float],
    *,
    configs: Sequence[SystemConfig | ConfigName] | None = None,
    num_threads: int = 64,
    title: str = "size sweep",
    x_label: str = "Size (GB)",
) -> ResultSet:
    """Run ``factory(size)`` for every size under every configuration."""
    if not sizes_gb:
        raise ValueError("sizes_gb must be non-empty")
    _check_axis("size_gb", sizes_gb)
    config_list = resolve_configs(configs)
    executor = as_executor(runner)
    xs: list[float] = []
    cells: list[SweepCell] = []
    for size in sizes_gb:
        workload = factory(size)
        for config in config_list:
            xs.append(float(size))
            cells.append(SweepCell(workload, config, num_threads))
    records = executor.run_cells(cells)
    _check_sweep_batch(executor, cells, records, axis="size")
    return ResultSet(list(zip(xs, records)), x_label=x_label, title=title)


def thread_sweep(
    runner: ExperimentRunner | SweepExecutor,
    workload: Workload,
    thread_counts: Sequence[int],
    *,
    configs: Sequence[SystemConfig | ConfigName] | None = None,
    title: str = "thread sweep",
    x_label: str = "No. of Threads",
) -> ResultSet:
    """Run the workload at each thread count under every configuration."""
    if not thread_counts:
        raise ValueError("thread_counts must be non-empty")
    _check_axis("threads", thread_counts)
    config_list = resolve_configs(configs)
    executor = as_executor(runner)
    xs: list[float] = []
    cells: list[SweepCell] = []
    for threads in thread_counts:
        for config in config_list:
            xs.append(float(threads))
            cells.append(SweepCell(workload, config, int(threads)))
    records = executor.run_cells(cells)
    _check_sweep_batch(executor, cells, records, axis="threads")
    return ResultSet(list(zip(xs, records)), x_label=x_label, title=title)
