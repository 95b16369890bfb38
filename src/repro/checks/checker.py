"""The runtime invariant checker.

Three entry points evaluate the registry of
:mod:`repro.checks.invariants` at its three scopes:

* :func:`check_run` — one record (optionally with a metrics window),
* :func:`check_sweep` — one completed sweep batch,
* :func:`check_exhibit` — one rendered exhibit,

each returning a :class:`CheckReport` (which invariants were applicable,
which were violated).  :class:`CheckingRunner` wraps any runner-shaped
object (:class:`~repro.core.runner.ExperimentRunner` or a
:class:`~repro.core.executor.SweepExecutor`'s inner runner) so that
every ``run()`` executes inside a metrics window and is audited on the
way out — this is what the ``--check`` CLI flag, the ``REPRO_CHECK``
environment variable and ``make check`` all build on.

Violation handling is one of three policies:

* ``raise`` (default) — throw :class:`InvariantViolation`,
* ``warn`` — print each violation to stderr and continue,
* a ``collect`` list — append and continue (the batch checker's mode).
"""

from __future__ import annotations

import enum
import sys
import threading
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.checks.invariants import (
    REGISTRY,
    ExhibitContext,
    RunContext,
    Scope,
    SweepContext,
    SweepEntry,
    Violation,
)
from repro.checks.window import metrics_window
from repro.core.configs import ConfigName, SystemConfig, make_config
from repro.core.runner import ExperimentRunner, RunRecord
from repro.machine.topology import KNLMachine
from repro.obs import metrics as obs_metrics
from repro.runtime.simos import memory_system_for
from repro.workloads.base import Workload

__all__ = [
    "CheckMode",
    "CheckReport",
    "InvariantViolation",
    "CheckingRunner",
    "check_run",
    "check_sweep",
    "check_exhibit",
    "check_mode_from_env",
]


class CheckMode(enum.Enum):
    """What to do when an invariant is violated."""

    WARN = "warn"
    RAISE = "raise"

    @classmethod
    def parse(cls, value: "CheckMode | str") -> "CheckMode":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            options = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown check mode {value!r}; expected one of {options}"
            ) from None


_ENV_FALSY = {"", "0", "false", "off", "no"}


def check_mode_from_env(
    env: Mapping[str, str] | None = None,
) -> "str | None":
    """Interpret ``REPRO_CHECK``: unset/falsy -> None, ``warn`` -> warn,
    anything else truthy (``1``, ``raise``, ...) -> raise."""
    import os

    environ = env if env is not None else os.environ
    raw = environ.get("REPRO_CHECK", "").strip().lower()
    if raw in _ENV_FALSY:
        return None
    return raw if raw in {m.value for m in CheckMode} else CheckMode.RAISE.value


class InvariantViolation(AssertionError):
    """Raised in ``raise`` mode; carries the full violation list."""

    def __init__(self, violations: Sequence[Violation]) -> None:
        self.violations = tuple(violations)
        lines = [f"{len(self.violations)} invariant violation(s):"]
        lines += [f"  {v.describe()}" for v in self.violations]
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one checker evaluation."""

    #: Names of the invariants that were applicable and ran.
    evaluated: tuple[str, ...]
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _evaluate(scope: Scope, ctx: Any) -> CheckReport:
    evaluated: list[str] = []
    violations: list[Violation] = []
    for inv in REGISTRY.values():
        if inv.scope is not scope:
            continue
        result = inv.fn(ctx)
        if result is None:
            continue  # not applicable to this subject
        evaluated.append(inv.name)
        violations.extend(result)
    return CheckReport(tuple(evaluated), tuple(violations))


def check_run(
    machine: KNLMachine,
    workload: Workload,
    config: "SystemConfig | ConfigName",
    num_threads: int,
    record: RunRecord,
    window: "object | None" = None,
) -> CheckReport:
    """Evaluate every run-scope invariant against one record.

    ``window`` is the run's :class:`~repro.checks.window.MetricsWindow`;
    without one the event-conservation invariants report not-applicable
    and only the record-level laws (capacity, timing, Little's law) run.
    """
    resolved = make_config(config) if isinstance(config, ConfigName) else config
    ctx = RunContext(
        machine=machine,
        memory=memory_system_for(machine, resolved.mcdram),
        workload=workload,
        config=resolved,
        num_threads=num_threads,
        record=record,
        profile=(
            workload.profile_cached() if record.run_result is not None else None
        ),
        window=window,
    )
    return _evaluate(Scope.RUN, ctx)


def check_sweep(
    entries: Sequence[
        "SweepEntry | tuple[Workload, SystemConfig, int, RunRecord]"
    ],
    *,
    machine: KNLMachine,
    axis: str,
) -> CheckReport:
    """Evaluate every sweep-scope invariant against one batch.

    ``axis`` is ``"size"`` or ``"threads"`` — which sweep axis varied.
    """
    normalized = tuple(
        entry if isinstance(entry, SweepEntry) else SweepEntry(*entry)
        for entry in entries
    )
    ctx = SweepContext(machine=machine, axis=axis, entries=normalized)
    return _evaluate(Scope.SWEEP, ctx)


def check_exhibit(exhibit: "object") -> CheckReport:
    """Evaluate every exhibit-scope invariant against one exhibit."""
    return _evaluate(Scope.EXHIBIT, ExhibitContext(exhibit))


class CheckingRunner:
    """Runner wrapper auditing every run against the invariant registry.

    Duck-compatible with :class:`~repro.core.runner.ExperimentRunner`
    (``machine``, ``run``), so it slots between a
    :class:`~repro.core.executor.SweepExecutor` and its runner — or can
    be used directly.  Each run executes inside a metrics window (see
    :mod:`repro.checks.window`), which serializes checked runs within a
    process.

    Parameters
    ----------
    runner:
        The wrapped runner (default: a fresh ``ExperimentRunner``).
    mode:
        ``"raise"`` or ``"warn"`` — violation policy when ``collect`` is
        not given.
    collect:
        Optional list; violations are appended instead of raised/warned.
    """

    def __init__(
        self,
        runner: ExperimentRunner | None = None,
        *,
        mode: "CheckMode | str" = CheckMode.RAISE,
        collect: "list[Violation] | None" = None,
    ) -> None:
        self.runner = runner if runner is not None else ExperimentRunner()
        self.mode = CheckMode.parse(mode)
        self.collect = collect
        self.runs_checked = 0
        self.invariants_evaluated = 0
        self.violation_count = 0
        self.evaluated_names: set[str] = set()
        self._lock = threading.Lock()

    # -- runner compatibility -------------------------------------------------
    @property
    def machine(self) -> KNLMachine:
        return self.runner.machine

    def run(
        self,
        workload: Workload,
        config: "SystemConfig | ConfigName",
        num_threads: int = 64,
    ) -> RunRecord:
        """Run one cell under a metrics window and audit it."""
        with metrics_window() as window:
            record = self.runner.run(workload, config, num_threads)
        # Evaluate after the window closes so a temporary registry is
        # already uninstalled and ``checks.*`` counters land in the
        # user's session registry, if any.
        report = check_run(
            self.machine, workload, config, num_threads, record, window
        )
        self.handle_report(report)
        return record

    # -- violation policy -----------------------------------------------------
    def handle_report(self, report: CheckReport) -> None:
        """Account a report and apply the violation policy."""
        with self._lock:
            self.runs_checked += 1
            self.invariants_evaluated += len(report.evaluated)
            self.violation_count += len(report.violations)
            self.evaluated_names.update(report.evaluated)
        obs_metrics.add("checks.evaluated", float(len(report.evaluated)))
        if not report.violations:
            return
        obs_metrics.add("checks.violations", float(len(report.violations)))
        if self.collect is not None:
            self.collect.extend(report.violations)
            return
        if self.mode is CheckMode.WARN:
            for violation in report.violations:
                print(f"[check] {violation.describe()}", file=sys.stderr)
            return
        raise InvariantViolation(report.violations)
