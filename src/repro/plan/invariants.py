"""Declarative invariants over solved capacity plans.

The same discipline as the physical-law registry in
:mod:`repro.checks.invariants` — named checks with descriptions,
evaluated over a (request, result) pair — but kept in a **plan-local**
registry: the ``repro.checks`` registry is coupled to run/sweep/exhibit
metric contexts (and its coverage test asserts every registered
invariant is exercised by those contexts), while these checks take wire
objects.

Every :meth:`repro.plan.planner.CapacityPlanner.plan` answer passes
:func:`check_plan` before it is returned; the tamper tests construct
deliberately broken results and assert each invariant catches its
violation class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.api.plan import PlanRequest, PlanResult

__all__ = [
    "PlanInvariant",
    "PLAN_REGISTRY",
    "plan_invariant",
    "check_plan",
]

#: Relative slack for floating-point comparisons (loads and objective
#: values are sums of products the checker recomputes independently).
_REL_TOL = 1e-9


@dataclass(frozen=True)
class PlanInvariant:
    """One registered plan check: metadata plus the evaluating
    function, which returns a list of violation messages (empty =
    holds)."""

    name: str
    description: str
    fn: Callable[[PlanRequest, PlanResult], "list[str]"] = field(repr=False)


#: name -> PlanInvariant, in registration order.
PLAN_REGISTRY: dict[str, PlanInvariant] = {}


def plan_invariant(name: str, *, description: str) -> Callable:
    """Register a plan-checking function under ``name``."""

    def register(fn: Callable) -> Callable:
        if name in PLAN_REGISTRY:
            raise ValueError(f"plan invariant {name!r} already registered")
        PLAN_REGISTRY[name] = PlanInvariant(
            name=name, description=description, fn=fn
        )
        return fn

    return register


def check_plan(request: PlanRequest, result: PlanResult) -> list[str]:
    """Evaluate every registered invariant; returns all violations."""
    violations: list[str] = []
    for inv in PLAN_REGISTRY.values():
        for message in inv.fn(request, result):
            violations.append(f"[{inv.name}] {message}")
    return violations


def _close(a: float, b: float) -> bool:
    # math.isclose holds for equal values; testing that first only skips
    # the call.
    return a == b or math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=1e-12)


@plan_invariant(
    "plan.weight_conserved",
    description=(
        "every mix item is assigned exactly once, in mix order, with "
        "its weight intact — no traffic is dropped, duplicated or "
        "reweighted by the solver"
    ),
)
def _weight_conserved(request: PlanRequest, result: PlanResult) -> list[str]:
    violations: list[str] = []
    if len(result.assignments) != len(request.mix):
        violations.append(
            f"{len(request.mix)} mix items but "
            f"{len(result.assignments)} assignments"
        )
        return violations
    for i, (item, assignment) in enumerate(
        zip(request.mix, result.assignments)
    ):
        # Dataclass equality holds between an item and itself (identical
        # fields compare equal), so the identity test only skips a call.
        if assignment.item is not item and assignment.item != item:
            violations.append(
                f"assignment {i} carries {assignment.item}, mix has {item}"
            )
    return violations


@plan_invariant(
    "plan.assignments_valid",
    description=(
        "every assignment places its item on a pool machine, under a "
        "config that pool entry allows, with load_nodes == "
        "weight * time_s (Little's law)"
    ),
)
def _assignments_valid(request: PlanRequest, result: PlanResult) -> list[str]:
    violations: list[str] = []
    allowed = {entry.machine: entry.effective_configs() for entry in request.pool}
    for i, assignment in enumerate(result.assignments):
        configs = allowed.get(assignment.machine)
        if configs is None:
            violations.append(
                f"assignment {i} on {assignment.machine!r}, not in the pool"
            )
            continue
        if assignment.config not in configs:
            violations.append(
                f"assignment {i} uses config {assignment.config!r}, which "
                f"{assignment.machine} does not allow ({', '.join(configs)})"
            )
        expected = assignment.item.weight * assignment.time_ns * 1e-9
        if not _close(assignment.load_nodes, expected):
            violations.append(
                f"assignment {i} load_nodes {assignment.load_nodes!r} != "
                f"weight * time_s = {expected!r}"
            )
    return violations


@plan_invariant(
    "plan.capacity_feasible",
    description=(
        "per machine, the sum of assigned busy-node loads fits the "
        "pool's node count, and the reported MachineLoad rows match "
        "the assignments"
    ),
)
def _capacity_feasible(request: PlanRequest, result: PlanResult) -> list[str]:
    violations: list[str] = []
    pool = {entry.machine: entry for entry in request.pool}
    totals = {entry.machine: 0.0 for entry in request.pool}
    for assignment in result.assignments:
        if assignment.machine in totals:
            totals[assignment.machine] += assignment.load_nodes
    reported = {load.machine: load for load in result.loads}
    if set(reported) != set(pool):
        violations.append(
            f"loads cover {sorted(reported)}, pool is {sorted(pool)}"
        )
    for machine, total in totals.items():
        entry = pool[machine]
        if total > entry.nodes * (1.0 + _REL_TOL):
            violations.append(
                f"{machine} is over capacity: load {total!r} > "
                f"{entry.nodes} nodes"
            )
        load = reported.get(machine)
        if load is None:
            continue
        if load.nodes != entry.nodes:
            violations.append(
                f"{machine} load row reports {load.nodes} nodes, pool has "
                f"{entry.nodes}"
            )
        if not _close(load.load_nodes, total):
            violations.append(
                f"{machine} load row reports {load.load_nodes!r}, "
                f"assignments sum to {total!r}"
            )
    return violations


@plan_invariant(
    "plan.objective_consistent",
    description=(
        "the reported objective value equals the objective recomputed "
        "from the assignments (runtime: sum of weight * time_s; "
        "energy: sum of weight * energy_j)"
    ),
)
def _objective_consistent(
    request: PlanRequest, result: PlanResult
) -> list[str]:
    if result.objective != request.objective:
        return [
            f"result objective {result.objective!r} != requested "
            f"{request.objective!r}"
        ]
    if result.objective == "energy":
        recomputed = sum(
            a.item.weight * a.energy_j for a in result.assignments
        )
    else:
        recomputed = sum(a.load_nodes for a in result.assignments)
    if not _close(result.objective_value, recomputed):
        return [
            f"objective_value {result.objective_value!r} != recomputed "
            f"{recomputed!r}"
        ]
    return []
