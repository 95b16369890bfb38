"""The fleet-scale capacity planner.

Given a declarative traffic mix and a machine pool
(:class:`~repro.api.plan.PlanRequest`), the planner:

1. **fans out** every distinct (workload, size, threads) spec of the
   mix over every (machine, config) of the pool — items that repeat a
   spec share its predictions — and evaluates the queries as dense
   per-machine batches through the
   :class:`~repro.api.facade.Predictor`'s executors — literally the
   :meth:`~repro.api.facade.Predictor.predict_many` path, so each
   candidate's prediction is bit-identical to a direct
   :meth:`~repro.api.facade.Predictor.predict` of the same query and
   shares the run cache and the persistent table cache (a prewarmed
   deployment plans with **zero** table builds);
2. **prices** each candidate: its busy-node load by Little's law
   (``weight * time_s``, per item) and its energy per arrival through
   :class:`~repro.engine.energy.EnergyModel` (once per distinct spec);
3. **solves** the placement: deterministic greedy best-fit-decreasing
   (hardest items first, each on its cheapest candidate that still
   fits), minimizing aggregate runtime load or aggregate energy under
   the pool's node-count capacity constraints.  No single-item move can
   improve a greedy plan: a cheaper candidate skipped for lack of room
   only loses room as later items are placed;
4. **validates** the answer against the plan invariants
   (:mod:`repro.plan.invariants`) before returning it.

Candidates a machine cannot run at all — an unsupported memory mode,
a thread count over the machine's limit, a footprint the model calls
infeasible (the paper's Fig. 4 missing bars) — are silently excluded;
an item left with *no* candidate anywhere raises
:class:`~repro.api.errors.InfeasiblePlanError`, as does a mix whose
loads cannot be packed into the pool.

Everything is deterministic: no randomness, no wall-clock inputs, and
stable tie-breaking (item order, then machine and config names), so
the same request always produces the same
:class:`~repro.api.plan.PlanResult` — the property the CLI-vs-service
identity test pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.api.errors import InfeasiblePlanError, PlanError, ValidationError
from repro.api.facade import Predictor, sized_workload
from repro.api.plan import (
    MachineLoad,
    PlanAssignment,
    PlanRequest,
    PlanResult,
)
from repro.api.types import PredictionResult, Query
from repro.engine.energy import EnergyModel, EnergyParameters
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.plan.invariants import check_plan

__all__ = ["CapacityPlanner", "plan_request"]

#: Relative capacity slack for float sums of loads.
_REL_TOL = 1e-9


#: A mix item's ``(workload, size_gb, num_threads)``: items that share
#: one share its predictions.
_Spec = tuple[str, float, int]


@dataclass(frozen=True)
class _Candidate:
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


class CapacityPlanner:
    """Solves :class:`PlanRequest` specs over a shared predictor.

    Like the predictor it wraps, a planner is **not** thread-safe; the
    serving layer builds one per worker thread on top of that thread's
    predictor (so plans share the service's executors and caches).
    """

    def __init__(
        self,
        predictor: Predictor | None = None,
        *,
        energy_params: EnergyParameters | None = None,
    ) -> None:
        self.predictor = predictor if predictor is not None else Predictor()
        self.energy_model = EnergyModel(energy_params)

    # -- evaluation -----------------------------------------------------------
    def _priced_options(
        self, request: PlanRequest, specs: Sequence[_Spec]
    ) -> dict[_Spec, list[tuple[Query, PredictionResult, float]]]:
        """Each distinct ``(workload, size_gb, num_threads)`` spec's
        feasible ``(query, result, energy_j)`` options over the pool,
        evaluated as dense per-machine batches (the bit-identity path)."""
        kept: list[tuple[_Spec, Query]] = []
        cells = []
        for spec in specs:
            workload, size_gb, num_threads = spec
            for entry in request.pool:
                for config in entry.effective_configs():
                    query = Query(
                        workload=workload,
                        size_gb=size_gb,
                        config=config,
                        num_threads=num_threads,
                        machine=entry.machine,
                    )
                    try:
                        cell = self.predictor.resolve(query)
                    except ValidationError:
                        # Machine-dependent rejection (unsupported memory
                        # mode, thread count over the machine's limit):
                        # this machine simply offers no such candidate.
                        continue
                    kept.append((spec, query))
                    cells.append(cell)
        by_machine: dict[str, list[int]] = {}
        for i, (_, query) in enumerate(kept):
            by_machine.setdefault(query.machine, []).append(i)
        options: dict[_Spec, list[tuple[Query, PredictionResult, float]]] = {
            spec: [] for spec in specs
        }
        for machine, indices in by_machine.items():
            records = self.predictor.executor(machine).run_cells(
                [cells[i] for i in indices]
            )
            for i, record in zip(indices, records):
                spec, query = kept[i]
                result = PredictionResult.from_record(query, record)
                if result.error is not None or result.time_ns is None:
                    continue  # modelled infeasibility: not a candidate
                estimate = self.energy_model.estimate_record(
                    sized_workload(query.workload, query.size_gb), record
                )
                assert estimate is not None  # feasible => run_result set
                options[spec].append((query, result, estimate.total_j))
        return options

    def _candidates(self, request: PlanRequest) -> list[list[_Candidate]]:
        """Per-item feasible candidates, sorted by ``(cost, machine,
        config)``.

        Items that share a ``(workload, size_gb, num_threads)`` spec
        share its predictions and energy estimates, which are priced
        once; only the weight-dependent load and cost are per item.
        """
        spec_of = [
            (item.workload, item.size_gb, item.num_threads)
            for item in request.mix
        ]
        specs = list(dict.fromkeys(spec_of))
        # Machine-independent problems (unknown workload, a size the
        # constructor rejects) are typed request errors, not "infeasible
        # everywhere" — surface them before any fan-out.
        for workload, size_gb, _ in specs:
            sized_workload(workload, size_gb)
        priced = self._priced_options(request, specs)
        energy = request.objective == "energy"
        per_item: list[list[_Candidate]] = []
        for index, item in enumerate(request.mix):
            options = []
            for query, result, energy_j in priced[spec_of[index]]:
                load = item.weight * result.time_ns * 1e-9  # type: ignore[operator]
                options.append(
                    _Candidate(
                        item_index=index,
                        query=query,
                        result=result,
                        load_nodes=load,
                        energy_j=energy_j,
                        cost=item.weight * energy_j if energy else load,
                    )
                )
            # Deterministic candidate order regardless of batch scheduling.
            options.sort(key=lambda c: (c.cost, c.machine, c.config))
            per_item.append(options)
        return per_item

    # -- solving --------------------------------------------------------------
    @staticmethod
    def _fits(load: float, remaining: float) -> bool:
        return load <= remaining + abs(remaining) * _REL_TOL + 1e-12

    def _greedy(
        self,
        request: PlanRequest,
        per_item: Sequence[Sequence[_Candidate]],
    ) -> list[_Candidate]:
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
        # Best-fit decreasing: place the hardest items (largest best-case
        # cost) first, while capacity is still fungible.
        order = sorted(
            range(len(per_item)),
            key=lambda i: (-per_item[i][0].cost, i),
        )
        chosen: list[_Candidate | None] = [None] * len(per_item)
        for index in order:
            placed = None
            for candidate in per_item[index]:
                if self._fits(candidate.load_nodes, remaining[candidate.machine]):
                    placed = candidate
                    break
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
        assert all(c is not None for c in chosen)
        return chosen  # type: ignore[return-value]

    # -- entry point ----------------------------------------------------------
    def plan(self, request: PlanRequest) -> PlanResult:
        """Solve one request; raises the typed :mod:`repro.api.errors`
        on malformed or infeasible specs."""
        tags = {
            "items": len(request.mix),
            "pool": len(request.pool),
            "objective": request.objective,
        }
        with obs_trace.span("plan.solve", tags=tags):
            per_item = self._candidates(request)
            obs_metrics.add(
                "plan.candidates",
                float(sum(len(options) for options in per_item)),
            )
            chosen = self._greedy(request, per_item)
            assignments = tuple(
                PlanAssignment(
                    item=request.mix[candidate.item_index],
                    machine=candidate.machine,
                    config=candidate.config,
                    time_ns=candidate.result.time_ns,  # type: ignore[arg-type]
                    metric=candidate.result.metric,  # type: ignore[arg-type]
                    metric_name=candidate.result.metric_name,
                    metric_unit=candidate.result.metric_unit,
                    load_nodes=candidate.load_nodes,
                    energy_j=candidate.energy_j,
                )
                for candidate in chosen
            )
            totals = {entry.machine: 0.0 for entry in request.pool}
            for assignment in assignments:
                totals[assignment.machine] += assignment.load_nodes
            loads = tuple(
                MachineLoad(
                    machine=entry.machine,
                    nodes=entry.nodes,
                    load_nodes=totals[entry.machine],
                )
                for entry in request.pool
            )
            result = PlanResult(
                assignments=assignments,
                objective=request.objective,
                objective_value=sum(c.cost for c in chosen),
                loads=loads,
            )
            violations = check_plan(request, result)
            if violations:  # pragma: no cover - solver bug guard
                raise PlanError(
                    "solver produced an invalid plan: "
                    + "; ".join(violations),
                    details={"violations": violations},
                )
            obs_metrics.add("plan.solved")
            obs_metrics.add("plan.assignments", float(len(assignments)))
        return result


def plan_request(
    request: PlanRequest, *, predictor: Predictor | None = None
) -> PlanResult:
    """One-shot convenience: solve ``request`` on a fresh (or given)
    predictor."""
    return CapacityPlanner(predictor).plan(request)
