"""A self-contained test oracle for the capacity planner.

:class:`ReferencePlanner` solves a :class:`~repro.api.plan.PlanRequest`
the plain way, sharing nothing with
:class:`~repro.plan.planner.CapacityPlanner` but the predictor and the
energy model:

* :func:`per_item_candidates` — one query, resolve, prediction and
  energy estimate per (item, machine, config), each item's candidates
  sorted on their own by ``(cost, machine, config)``;
* :func:`greedy` — best-fit decreasing over those candidates;
* :func:`rescanning_local_search` — a best-improvement search whose
  every round scans every candidate of every item;
* assembly through the validating :class:`~repro.api.plan.PlanAssignment`
  and :class:`~repro.api.plan.PlanResult` constructors.

So any difference from the planner is a regression of its per-spec
ranking, its tie rule, its trusted assembly, or a move its greedy alone
misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.api.errors import InfeasiblePlanError, ValidationError
from repro.api.facade import Predictor, sized_workload
from repro.api.plan import MachineLoad, PlanAssignment, PlanRequest, PlanResult
from repro.api.types import PredictionResult, Query
from repro.engine.energy import EnergyModel

#: Hard ceiling on search improvement rounds (each round applies the
#: single best improving move).
_MAX_SEARCH_ROUNDS = 256

#: Relative capacity slack for float sums of loads.
_REL_TOL = 1e-9


@dataclass(frozen=True)
class Candidate:
    """One evaluated (item, machine, config) placement option."""

    item_index: int
    query: Query
    result: PredictionResult
    load_nodes: float
    energy_j: float
    cost: float

    @property
    def machine(self) -> str:
        return self.query.machine

    @property
    def config(self) -> str:
        return self.query.config


def fits(load: float, remaining: float) -> bool:
    return load <= remaining + abs(remaining) * _REL_TOL + 1e-12


def per_item_candidates(
    planner: "ReferencePlanner", request: PlanRequest
) -> list[list[Candidate]]:
    """Per-item feasible candidates, each priced and sorted on its own."""
    for item in request.mix:
        sized_workload(item.workload, item.size_gb)
    kept: list[tuple[int, Query]] = []
    cells = []
    for index, item in enumerate(request.mix):
        for entry in request.pool:
            for config in entry.effective_configs():
                query = Query(
                    workload=item.workload,
                    size_gb=item.size_gb,
                    config=config,
                    num_threads=item.num_threads,
                    machine=entry.machine,
                )
                try:
                    cells.append(planner.predictor.resolve(query))
                except ValidationError:
                    continue
                kept.append((index, query))
    by_machine: dict[str, list[int]] = {}
    for i, (_, query) in enumerate(kept):
        by_machine.setdefault(query.machine, []).append(i)
    per_item: list[list[Candidate]] = [[] for _ in request.mix]
    for machine, indices in by_machine.items():
        records = planner.predictor.executor(machine).run_cells(
            [cells[i] for i in indices]
        )
        for i, record in zip(indices, records):
            item_index, query = kept[i]
            result = PredictionResult.from_record(query, record)
            if result.error is not None or result.time_ns is None:
                continue
            item = request.mix[item_index]
            load = item.weight * result.time_ns * 1e-9
            estimate = planner.energy_model.estimate_record(
                sized_workload(query.workload, query.size_gb), record
            )
            cost = (
                item.weight * estimate.total_j
                if request.objective == "energy"
                else load
            )
            per_item[item_index].append(
                Candidate(
                    item_index=item_index,
                    query=query,
                    result=result,
                    load_nodes=load,
                    energy_j=estimate.total_j,
                    cost=cost,
                )
            )
    for options in per_item:
        options.sort(key=lambda c: (c.cost, c.machine, c.config))
    return per_item


def greedy(
    request: PlanRequest, per_item: Sequence[Sequence[Candidate]]
) -> list[Candidate]:
    """Best-fit decreasing: items by decreasing cheapest cost (ties in
    mix order), each on its cheapest candidate that still fits."""
    missing = [
        request.mix[i].workload
        for i, options in enumerate(per_item)
        if not options
    ]
    if missing:
        raise InfeasiblePlanError(
            "no feasible (machine, config) candidate for mix item(s): "
            + ", ".join(missing),
            details={"items": missing},
        )
    remaining = {entry.machine: float(entry.nodes) for entry in request.pool}
    order = sorted(
        range(len(per_item)), key=lambda i: (-per_item[i][0].cost, i)
    )
    chosen: list[Candidate | None] = [None] * len(per_item)
    for index in order:
        placed = next(
            (
                c
                for c in per_item[index]
                if fits(c.load_nodes, remaining[c.machine])
            ),
            None,
        )
        if placed is None:
            item = request.mix[index]
            raise InfeasiblePlanError(
                f"mix item {index} ({item.workload}, "
                f"{item.size_gb:g} GB, weight {item.weight:g}) does not "
                "fit the remaining node capacity on any machine",
                details={
                    "item": item.to_dict(),
                    "remaining_nodes": dict(remaining),
                },
            )
        chosen[index] = placed
        remaining[placed.machine] -= placed.load_nodes
    return chosen  # type: ignore[return-value]


def rescanning_local_search(
    request: PlanRequest,
    per_item: Sequence[Sequence[Candidate]],
    chosen: list[Candidate],
) -> list[Candidate]:
    """Best-improvement search that scans every candidate every round."""
    remaining = {entry.machine: float(entry.nodes) for entry in request.pool}
    for candidate in chosen:
        remaining[candidate.machine] -= candidate.load_nodes
    for _ in range(_MAX_SEARCH_ROUNDS):
        best_delta = 0.0
        best_move: tuple[int, Candidate] | None = None
        for index, current in enumerate(chosen):
            for candidate in per_item[index]:
                if candidate is current:
                    continue
                delta = candidate.cost - current.cost
                if delta >= best_delta:
                    continue
                free = remaining[candidate.machine]
                if candidate.machine == current.machine:
                    free += current.load_nodes
                if not fits(candidate.load_nodes, free):
                    continue
                best_delta = delta
                best_move = (index, candidate)
        if best_move is None:
            return chosen
        index, candidate = best_move
        current = chosen[index]
        remaining[current.machine] += current.load_nodes
        remaining[candidate.machine] -= candidate.load_nodes
        chosen[index] = candidate
    return chosen


class ReferencePlanner:
    """Per-item candidates, greedy, rescanning search, validated
    assembly."""

    def __init__(self, predictor: Predictor) -> None:
        self.predictor = predictor
        self.energy_model = EnergyModel()

    def plan(self, request: PlanRequest) -> PlanResult:
        per_item = per_item_candidates(self, request)
        chosen = rescanning_local_search(
            request, per_item, greedy(request, per_item)
        )
        assignments = tuple(
            PlanAssignment(
                item=request.mix[c.item_index],
                machine=c.machine,
                config=c.config,
                time_ns=c.result.time_ns,
                metric=c.result.metric,
                metric_name=c.result.metric_name,
                metric_unit=c.result.metric_unit,
                load_nodes=c.load_nodes,
                energy_j=c.energy_j,
            )
            for c in chosen
        )
        totals = {entry.machine: 0.0 for entry in request.pool}
        for assignment in assignments:
            totals[assignment.machine] += assignment.load_nodes
        return PlanResult(
            assignments=assignments,
            objective=request.objective,
            objective_value=sum(c.cost for c in chosen),
            loads=tuple(
                MachineLoad(
                    machine=entry.machine,
                    nodes=entry.nodes,
                    load_nodes=totals[entry.machine],
                )
                for entry in request.pool
            ),
        )
