"""Batch checking: every exhibit, every invariant, one report.

``make check`` (and ``python -m repro check``) drives
:func:`check_exhibits`: all 15 exhibits are regenerated through one
:class:`~repro.core.executor.SweepExecutor` whose runner is a
collecting :class:`~repro.checks.checker.CheckingRunner`, so every
sweep cell is audited at run scope, every sweep at sweep scope, and
every rendered exhibit at exhibit scope.  The per-exhibit rendered text
is kept on the result, letting the golden-identity suite assert that a
fully checked pass is byte-identical to the unchecked goldens.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.checks.checker import CheckingRunner, check_exhibit
from repro.checks.invariants import Violation
from repro.core.executor import SweepExecutor
from repro.core.runner import ExperimentRunner
from repro.figures import EXHIBITS
from repro.machine.topology import KNLMachine, ThreadCapacityError

__all__ = ["ExhibitCheck", "BatchReport", "check_exhibits"]


@dataclass(frozen=True)
class ExhibitCheck:
    """Checking outcome for one exhibit."""

    exhibit_id: str
    #: Invariant evaluations attributed to this exhibit (runs + sweeps +
    #: the exhibit itself).
    evaluated: int
    violations: tuple[Violation, ...]
    #: The exhibit's rendered text (for golden-identity comparison).
    rendered: str

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class BatchReport:
    """Aggregate of one :func:`check_exhibits` pass."""

    checks: tuple[ExhibitCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def total_evaluated(self) -> int:
        return sum(check.evaluated for check in self.checks)

    @property
    def total_violations(self) -> int:
        return sum(len(check.violations) for check in self.checks)

    def render(self) -> str:
        lines = []
        for check in self.checks:
            status = "OK  " if check.ok else "FAIL"
            lines.append(
                f"{status} {check.exhibit_id:<8} "
                f"{check.evaluated:>4} invariant evaluations, "
                f"{len(check.violations)} violation(s)"
            )
            lines.extend(f"     {v.describe()}" for v in check.violations)
        lines.append(
            f"{len(self.checks)} exhibits, {self.total_evaluated} invariant "
            f"evaluations, {self.total_violations} violation(s)"
        )
        return "\n".join(lines)


def check_exhibits(
    exhibit_ids: "tuple[str, ...] | None" = None,
    *,
    machine: KNLMachine | None = None,
    cache_dir: "str | os.PathLike[str] | None" = None,
) -> BatchReport:
    """Regenerate exhibits under full invariant checking.

    One executor (and hence one run cache) serves the whole batch:
    repeated cells across exhibits are reused, which is sound because a
    cached record was itself audited under the same check configuration
    (the check mode is part of the cache key) — and the sweep- and
    exhibit-scope invariants always re-run.
    """
    ids = tuple(exhibit_ids) if exhibit_ids is not None else tuple(EXHIBITS)
    unknown = [i for i in ids if i not in EXHIBITS]
    if unknown:
        raise ValueError(f"unknown exhibit(s): {unknown}; known: {list(EXHIBITS)}")
    violations: list[Violation] = []
    runner = CheckingRunner(ExperimentRunner(machine), collect=violations)
    checks: list[ExhibitCheck] = []
    executor = SweepExecutor(runner, cache_dir=cache_dir)
    for exhibit_id in ids:
        generate = EXHIBITS[exhibit_id]
        seen_violations = len(violations)
        seen_evaluated = runner.invariants_evaluated
        try:
            exhibit = generate(executor)
        except ThreadCapacityError as exc:
            exc.exhibit_id = exhibit_id
            raise
        report = check_exhibit(exhibit)
        runner.handle_report(report)
        checks.append(
            ExhibitCheck(
                exhibit_id=exhibit_id,
                evaluated=runner.invariants_evaluated - seen_evaluated,
                violations=tuple(violations[seen_violations:]),
                rendered=exhibit.render(),
            )
        )
    return BatchReport(tuple(checks))
