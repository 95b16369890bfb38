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
   deployment plans with **zero** table builds).  Each priced option
   — ``(workload, size_gb, num_threads, machine, config)`` to its
   ``(Query, PredictionResult, energy_j)``, or to "no candidate" — is
   remembered for the planner's lifetime in an LRU memo bounded by the
   predictor's ``cache_size``, so only options no earlier plan priced
   are resolved, evaluated and energy-priced.  Nothing invalidates it:
   a planner is tied to one predictor and one energy model, and an
   executor's answer for a cell never changes;
2. **ranks** each spec's options by (unit cost, machine, config), the
   unit cost being ``time_ns`` or the energy per arrival from
   :class:`~repro.engine.energy.EnergyModel`, once per planner, pool
   and objective: the ranked columns, with each option's assignment
   template and JSON text, are remembered under the same bound.  Each
   item adds only its load (``weight * time_s``, Little's law) and
   cost, and is re-sorted only where two of its products round equal;
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

from collections import OrderedDict
from typing import Any, Sequence

from repro.api.envelope import assignment_fragments
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

#: One feasible (machine, config) placement of a spec, priced once.
_Option = tuple[Query, PredictionResult, float]

#: A priced option's memo key: ``(workload, size_gb, num_threads,
#: machine, config)``.
_OptionKey = tuple[str, float, int, str, str]

#: A pool's ``(machine, effective configs)`` pairs, in pool order: what a
#: spec's options depend on.
_PoolKey = tuple[tuple[str, tuple[str, ...]], ...]

#: A ranked-columns memo key: ``(spec, pool, objective)``.
_ColumnsKey = tuple[_Spec, _PoolKey, str]

#: One item's row: its options cheapest first, with the item's load
#: and cost of each, index for index.
_Row = tuple[Sequence[_Option], list[float], list[float]]


class _Columns:
    """One spec's options over one pool, ranked by (unit cost, machine,
    config) for one objective, with everything its items share.

    ``times`` and ``energies`` are the options' ``time_ns`` and energy
    per arrival; an item multiplies them by its weight.  ``templates``
    maps each option's ``(machine, config)`` to its assignment fields
    other than ``item`` and ``load_nodes``, their JSON text included.
    """

    __slots__ = ("options", "times", "energies", "templates")

    def __init__(self, spec: _Spec, options: Sequence[_Option]) -> None:
        self.options = tuple(options)
        self.times = [result.time_ns for _, result, _ in options]
        self.energies = [energy_j for _, _, energy_j in options]
        self.templates: dict[tuple[str, str], dict[str, Any]] = {}
        for query, result, energy_j in options:
            template = {
                "machine": query.machine,
                "config": query.config,
                "time_ns": result.time_ns,
                "metric": result.metric,
                "metric_name": result.metric_name,
                "metric_unit": result.metric_unit,
                "energy_j": energy_j,
            }
            template["encoded"] = assignment_fragments(spec, template)
            self.templates[query.machine, query.config] = template


class CapacityPlanner:
    """Solves :class:`PlanRequest` specs over a shared predictor.

    Like the predictor it wraps, a planner is **not** thread-safe; the
    serving layer keeps one per worker thread on top of that thread's
    predictor, so plans share the service's executors and caches, and
    each thread prices an option once.
    """

    def __init__(
        self,
        predictor: Predictor | None = None,
        *,
        energy_params: EnergyParameters | None = None,
    ) -> None:
        self.predictor = predictor if predictor is not None else Predictor()
        self.energy_model = EnergyModel(energy_params)
        #: Every option this planner has priced, or ``None`` where it
        #: offers no candidate; least recently used first, and bounded by
        #: the predictor's run-cache size.
        self._priced: OrderedDict[_OptionKey, _Option | None] = OrderedDict()
        #: Every spec's ranked columns per pool and objective, least
        #: recently used first, under the same bound.
        self._columns_memo: OrderedDict[_ColumnsKey, _Columns] = OrderedDict()

    # -- evaluation -----------------------------------------------------------
    def _remember(self, memo: OrderedDict, key: Any, value: Any) -> None:
        memo[key] = value
        while len(memo) > self.predictor.cache_size:
            memo.popitem(last=False)

    def _ranked_options(
        self, request: PlanRequest, specs: Sequence[_Spec]
    ) -> dict[_Spec, list[_Option]]:
        """Each distinct ``(workload, size_gb, num_threads)`` spec's
        feasible options over the pool, sorted by (unit cost, machine,
        config).  Memo misses are evaluated as dense per-machine batches
        (the bit-identity path) and remembered, infeasible ones as
        ``None``."""
        memo = self._priced
        options: dict[_Spec, list[_Option]] = {}
        misses: list[tuple[_OptionKey, Query]] = []
        cells = []
        for spec in specs:
            workload, size_gb, num_threads = spec
            ranked = options[spec] = []
            for entry in request.pool:
                machine = entry.machine
                for config in entry.effective_configs():
                    key = (workload, size_gb, num_threads, machine, config)
                    if key in memo:
                        memo.move_to_end(key)
                        option = memo[key]
                        if option is not None:
                            ranked.append(option)
                        continue
                    query = Query(
                        workload=workload,
                        size_gb=size_gb,
                        config=config,
                        num_threads=num_threads,
                        machine=machine,
                    )
                    try:
                        cell = self.predictor.resolve(query)
                    except ValidationError:
                        # Machine-dependent rejection (unsupported memory
                        # mode, thread count over the machine's limit):
                        # this machine simply offers no such candidate.
                        self._remember(memo, key, None)
                        continue
                    misses.append((key, query))
                    cells.append(cell)
        by_machine: dict[str, list[int]] = {}
        for i, (_, query) in enumerate(misses):
            by_machine.setdefault(query.machine, []).append(i)
        for machine, indices in by_machine.items():
            records = self.predictor.executor(machine).run_cells(
                [cells[i] for i in indices]
            )
            for i, record in zip(indices, records):
                key, query = misses[i]
                result = PredictionResult.from_record(query, record)
                if result.error is not None or result.time_ns is None:
                    # Modelled infeasibility: not a candidate.
                    self._remember(memo, key, None)
                    continue
                estimate = self.energy_model.estimate_record(
                    sized_workload(query.workload, query.size_gb), record
                )
                assert estimate is not None  # feasible => run_result set
                option = (query, result, estimate.total_j)
                self._remember(memo, key, option)
                options[key[:3]].append(option)
        energy = request.objective == "energy"
        for ranked in options.values():
            ranked.sort(
                key=lambda o: (
                    o[2] if energy else o[1].time_ns, o[0].machine, o[0].config
                )
            )
        return options

    def _columns(
        self, request: PlanRequest, specs: Sequence[_Spec]
    ) -> dict[_Spec, _Columns]:
        """Each distinct spec's ranked columns over the request's pool,
        ranked and templated once per planner: only specs the memo lacks
        reach :meth:`_ranked_options`."""
        pool: _PoolKey = tuple(
            (entry.machine, entry.effective_configs()) for entry in request.pool
        )
        objective = request.objective
        memo = self._columns_memo
        columns: dict[_Spec, _Columns] = {}
        unseen: list[_Spec] = []
        for spec in specs:
            key = (spec, pool, objective)
            found = memo.get(key)
            if found is None:
                unseen.append(spec)
            else:
                memo.move_to_end(key)
                columns[spec] = found
        if unseen:
            # Machine-independent problems (unknown workload, a size the
            # constructor rejects) are typed request errors, not
            # "infeasible everywhere" — surface them before any fan-out.
            # A remembered spec was valid, so the first invalid spec in
            # mix order still raises.
            for workload, size_gb, _ in unseen:
                sized_workload(workload, size_gb)
            for spec, options in self._ranked_options(request, unseen).items():
                found = columns[spec] = _Columns(spec, options)
                self._remember(memo, (spec, pool, objective), found)
        return columns

    def _rows(
        self, request: PlanRequest, columns: Sequence[_Columns]
    ) -> list[_Row]:
        """Per-item rows, each sorted by ``(cost, machine, config)``;
        ``columns`` holds each item's spec columns, item for item.

        Items that share a ``(workload, size_gb, num_threads)`` spec
        share its ranked options; only the weight-dependent load and
        cost are per item.
        """
        energy = request.objective == "energy"
        rows: list[_Row] = []
        for item, spec in zip(request.mix, columns):
            options: Sequence[_Option] = spec.options
            weight = item.weight
            loads = [weight * t * 1e-9 for t in spec.times]
            costs = [weight * e for e in spec.energies] if energy else loads
            # A positive weight keeps the spec's order unless two products
            # round equal; then (machine, config) decides, so re-sort just
            # this item.
            if len(set(costs)) < len(costs):
                order = sorted(
                    range(len(options)),
                    key=lambda k: (
                        costs[k], options[k][0].machine, options[k][0].config
                    ),
                )
                options = [options[k] for k in order]
                loads = [loads[k] for k in order]
                costs = [costs[k] for k in order] if energy else loads
            rows.append((options, loads, costs))
        return rows

    # -- solving --------------------------------------------------------------
    def _greedy(
        self, request: PlanRequest, rows: Sequence[_Row]
    ) -> list[tuple[_Option, float, float]]:
        """Each item's chosen ``(option, load, cost)``."""
        missing = [
            request.mix[i].workload
            for i, (options, _, _) in enumerate(rows)
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
        # cost) first, while capacity is still fungible; the sort is
        # stable, so equal costs keep mix order.
        order = sorted(range(len(rows)), key=lambda i: -rows[i][2][0])
        chosen: list = [None] * len(rows)
        for index in order:
            options, loads, costs = rows[index]
            for k, option in enumerate(options):
                machine = option[0].machine
                room = remaining[machine]
                # Fits, up to the float slack of a sum of loads.
                if loads[k] <= room + abs(room) * _REL_TOL + 1e-12:
                    break
            else:
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
            chosen[index] = (option, loads[k], costs[k])
            remaining[machine] -= loads[k]
        return chosen

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
            spec_of = [
                (item.workload, item.size_gb, item.num_threads)
                for item in request.mix
            ]
            by_spec = self._columns(request, list(dict.fromkeys(spec_of)))
            columns = [by_spec[spec] for spec in spec_of]
            rows = self._rows(request, columns)
            obs_metrics.add(
                "plan.candidates",
                float(sum(len(options) for options, _, _ in rows)),
            )
            chosen = self._greedy(request, rows)
            # Every field comes from the validated request or the engine,
            # and check_plan audits the assembled plan below.
            assignments = tuple(
                PlanAssignment._trusted(
                    spec.templates[query.machine, query.config],
                    item=item,
                    load_nodes=load,
                )
                for item, spec, ((query, _, _), load, _) in zip(
                    request.mix, columns, chosen
                )
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
                objective_value=sum(cost for _, _, cost in chosen),
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
