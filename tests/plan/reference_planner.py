"""Test oracles for the capacity planner.

:func:`per_item_candidates` is the fan-out as the planner ran it before
spec deduplication: one query, resolve, prediction and energy estimate
per (item, machine, config).  :func:`rescanning_local_search` is the
local search before its early exit: every round scans every candidate
of every item.  :class:`ReferencePlanner` solves with both, so any
difference from :class:`~repro.plan.planner.CapacityPlanner` is a
regression of the optimized paths.
"""

from __future__ import annotations

from typing import Sequence

from repro.api.errors import ValidationError
from repro.api.facade import sized_workload
from repro.api.plan import PlanRequest
from repro.api.types import PredictionResult, Query
from repro.plan.planner import _MAX_SEARCH_ROUNDS, CapacityPlanner, _Candidate


def per_item_candidates(
    planner: CapacityPlanner, request: PlanRequest
) -> list[list[_Candidate]]:
    """Per-item feasible candidates, each priced on its own."""
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
    per_item: list[list[_Candidate]] = [[] for _ in request.mix]
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
                _Candidate(
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


def rescanning_local_search(
    planner: CapacityPlanner,
    request: PlanRequest,
    per_item: Sequence[Sequence[_Candidate]],
    chosen: list[_Candidate],
) -> list[_Candidate]:
    """Best-improvement search that scans every candidate every round."""
    remaining = {entry.machine: float(entry.nodes) for entry in request.pool}
    for candidate in chosen:
        remaining[candidate.machine] -= candidate.load_nodes
    for _ in range(_MAX_SEARCH_ROUNDS):
        best_delta = 0.0
        best_move: tuple[int, _Candidate] | None = None
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
                if not planner._fits(candidate.load_nodes, free):
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


class ReferencePlanner(CapacityPlanner):
    """The planner with both reference paths swapped in."""

    _candidates = per_item_candidates
    _local_search = rescanning_local_search
