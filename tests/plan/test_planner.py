"""The capacity planner: feasibility, bit-identity, errors, invariants.

One module-scoped predictor backs every solve, so the model tables
build once; the planner shares its executors exactly like the serving
layer does.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.errors import InfeasiblePlanError, UnknownWorkloadError
from repro.api.facade import Predictor
from repro.api.plan import (
    MachineLoad,
    PlanAssignment,
    PlanRequest,
    PlanResult,
    PoolEntry,
    TrafficItem,
)
from repro.api.types import Query
from repro.plan import CapacityPlanner, check_plan, plan_request
from tests.plan.reference_planner import ReferencePlanner

MIX = (
    TrafficItem(workload="dgemm", size_gb=12.0, num_threads=64, weight=0.001),
    TrafficItem(workload="minife", size_gb=20.0, num_threads=64, weight=0.002),
    TrafficItem(workload="gups", size_gb=8.0, num_threads=32, weight=0.001),
)
POOL = (
    PoolEntry(machine="knl7210", nodes=8),
    PoolEntry(machine="xeonmax9480", nodes=8),
)


@pytest.fixture(scope="module")
def predictor():
    predictor = Predictor()
    yield predictor
    predictor.close()


@pytest.fixture(scope="module")
def planner(predictor):
    return CapacityPlanner(predictor)


@pytest.fixture(scope="module")
def runtime_result(planner):
    return planner.plan(PlanRequest(mix=MIX, pool=POOL))


class TestSolve:
    def test_feasible_and_invariant_clean(self, runtime_result):
        request = PlanRequest(mix=MIX, pool=POOL)
        assert check_plan(request, runtime_result) == []
        assert len(runtime_result.assignments) == len(MIX)
        assert runtime_result.objective == "runtime"
        assert runtime_result.objective_value > 0

    def test_assignments_follow_mix_order(self, runtime_result):
        assert tuple(a.item for a in runtime_result.assignments) == MIX

    def test_loads_cover_the_pool(self, runtime_result):
        assert tuple(load.machine for load in runtime_result.loads) == tuple(
            entry.machine for entry in POOL
        )
        for load in runtime_result.loads:
            assert 0.0 <= load.load_nodes <= load.nodes

    def test_bit_identity_with_direct_predict(self, planner, runtime_result):
        for assignment in runtime_result.assignments:
            direct = planner.predictor.predict(
                Query(
                    workload=assignment.item.workload,
                    size_gb=assignment.item.size_gb,
                    config=assignment.config,
                    num_threads=assignment.item.num_threads,
                    machine=assignment.machine,
                )
            )
            assert direct.time_ns == assignment.time_ns
            assert direct.metric == assignment.metric

    def test_loose_capacity_takes_every_cheapest_candidate(self, planner):
        request = PlanRequest(
            mix=MIX,
            pool=tuple(
                PoolEntry(machine=e.machine, nodes=10_000) for e in POOL
            ),
        )
        per_item = planner._candidates(request)
        result = planner.plan(request)
        assert result.objective_value == pytest.approx(
            sum(options[0].cost for options in per_item), rel=1e-12
        )

    def test_tight_capacity_stays_feasible_and_no_cheaper(self, planner):
        loose = planner.plan(PlanRequest(mix=MIX, pool=POOL))
        tight_pool = (
            PoolEntry(machine="knl7210", nodes=1),
            PoolEntry(machine="xeonmax9480", nodes=1),
        )
        tight_request = PlanRequest(mix=MIX, pool=tight_pool)
        tight = planner.plan(tight_request)
        assert check_plan(tight_request, tight) == []
        assert tight.objective_value >= loose.objective_value - 1e-12

    def test_determinism(self, planner, runtime_result):
        again = planner.plan(PlanRequest(mix=MIX, pool=POOL))
        assert again == runtime_result
        assert again.to_dict() == runtime_result.to_dict()

    def test_module_entry_point(self, predictor, runtime_result):
        assert (
            plan_request(PlanRequest(mix=MIX, pool=POOL), predictor=predictor)
            == runtime_result
        )


class TestEnergyObjective:
    def test_energy_plan_is_clean_and_priced_in_joules(self, planner):
        request = PlanRequest(mix=MIX, pool=POOL, objective="energy")
        result = planner.plan(request)
        assert check_plan(request, result) == []
        assert result.objective == "energy"
        assert result.objective_value == pytest.approx(
            sum(a.item.weight * a.energy_j for a in result.assignments),
            rel=1e-12,
        )
        for assignment in result.assignments:
            assert assignment.energy_j > 0


class TestInfeasibility:
    def test_unknown_workload_surfaces_before_fanout(self, planner):
        request = PlanRequest(
            mix=(TrafficItem(workload="linpack", size_gb=4.0),), pool=POOL
        )
        with pytest.raises(UnknownWorkloadError):
            planner.plan(request)

    def test_item_with_no_candidate_anywhere(self, planner):
        # 256 threads exceeds the Xeon Max's 112-thread limit, and the
        # pool offers nothing else: the item has zero viable candidates.
        request = PlanRequest(
            mix=(TrafficItem(workload="dgemm", size_gb=8.0, num_threads=256),),
            pool=(PoolEntry(machine="xeonmax9480", nodes=8),),
        )
        with pytest.raises(InfeasiblePlanError) as excinfo:
            planner.plan(request)
        assert excinfo.value.details["items"] == ["dgemm"]

    def test_overloaded_mix_does_not_pack(self, planner):
        # A weight this large keeps far more than one node busy on
        # every candidate; a 1-node pool cannot absorb it.
        request = PlanRequest(
            mix=(TrafficItem(workload="dgemm", size_gb=12.0, weight=1e6),),
            pool=(PoolEntry(machine="knl7210", nodes=1),),
        )
        with pytest.raises(InfeasiblePlanError) as excinfo:
            planner.plan(request)
        assert "remaining_nodes" in excinfo.value.details


class TestInvariantTamper:
    """Each invariant catches its violation class on hand-broken plans."""

    @pytest.fixture(scope="class")
    def solved(self, planner):
        request = PlanRequest(mix=MIX, pool=POOL)
        return request, planner.plan(request)

    @staticmethod
    def _rebuild(result, **overrides):
        fields = {
            "assignments": result.assignments,
            "objective": result.objective,
            "objective_value": result.objective_value,
            "loads": result.loads,
        }
        fields.update(overrides)
        return PlanResult(**fields)

    @staticmethod
    def _patch_assignment(assignment, **overrides):
        fields = assignment.to_dict()
        item = fields.pop("item")
        fields.update(overrides)
        return PlanAssignment(item=TrafficItem(**item), **fields)

    def test_dropped_item_caught(self, solved):
        request, result = solved
        broken = self._rebuild(result, assignments=result.assignments[:-1])
        assert any(
            "plan.weight_conserved" in v for v in check_plan(request, broken)
        )

    def test_tampered_load_caught(self, solved):
        request, result = solved
        first = self._patch_assignment(
            result.assignments[0],
            load_nodes=result.assignments[0].load_nodes * 2,
        )
        broken = self._rebuild(
            result, assignments=(first,) + result.assignments[1:]
        )
        assert any(
            "plan.assignments_valid" in v for v in check_plan(request, broken)
        )

    def test_over_capacity_caught(self, solved):
        request, _ = solved
        # Same plan judged against a pool squeezed to a sliver of the
        # loads it actually carries.
        result = solved[1]
        shrunk = PlanRequest(
            mix=request.mix,
            pool=tuple(
                PoolEntry(machine=e.machine, nodes=1) for e in request.pool
            ),
        )
        tiny = self._rebuild(
            result,
            assignments=tuple(
                self._patch_assignment(a, load_nodes=5.0, time_ns=5.0 / a.item.weight * 1e9)
                for a in result.assignments
            ),
            objective_value=5.0 * len(result.assignments),
            loads=tuple(
                MachineLoad(machine=l.machine, nodes=1, load_nodes=5.0)
                for l in result.loads
            ),
        )
        assert any(
            "plan.capacity_feasible" in v for v in check_plan(shrunk, tiny)
        )

    def test_mismatched_load_rows_caught(self, solved):
        request, result = solved
        broken = self._rebuild(
            result,
            loads=tuple(
                MachineLoad(
                    machine=l.machine,
                    nodes=l.nodes,
                    load_nodes=l.load_nodes + 1.0,
                )
                for l in result.loads
            ),
        )
        assert any(
            "plan.capacity_feasible" in v for v in check_plan(request, broken)
        )

    def test_tampered_objective_caught(self, solved):
        request, result = solved
        broken = self._rebuild(
            result, objective_value=result.objective_value * 3 + 1.0
        )
        assert any(
            "plan.objective_consistent" in v
            for v in check_plan(request, broken)
        )

    def test_wrong_objective_kind_caught(self, solved):
        request, result = solved
        broken = self._rebuild(
            result,
            objective="energy",
            objective_value=sum(
                a.item.weight * a.energy_j for a in result.assignments
            ),
        )
        assert any(
            "plan.objective_consistent" in v
            for v in check_plan(request, broken)
        )


#: (workload, size_gb, num_threads) specs the property mixes repeat.
#: GUPS at 256 threads exceeds the Xeon Max's thread limit, so that spec
#: exercises machine-dependent rejection inside the fan-out.
SPECS = (
    ("dgemm", 12.0, 64),
    ("minife", 20.0, 64),
    ("gups", 8.0, 32),
    ("graph500", 16.0, 64),
    ("xsbench", 24.0, 96),
    ("minife", 4.0, 128),
    ("gups", 8.0, 256),
)
ROOMY = 1_000_000


def _canonical(planner, request) -> str:
    """The canonical JSON of a plan, or the typed error it raised."""
    try:
        return json.dumps(planner.plan(request).to_dict(), sort_keys=True)
    except InfeasiblePlanError as exc:
        return f"infeasible: {exc} {exc.details}"


def _pool(kind: str, unconstrained_load: float) -> tuple[PoolEntry, ...]:
    """``loose``: room for anything.  ``tight``: the Xeon Max (the cheap
    machine) capped at 60% of the unconstrained load, so the plan must
    split.  ``squeezed``: both machines capped (often infeasible)."""
    cap = max(1, math.ceil(0.6 * unconstrained_load))
    knl, xeon = {
        "loose": (ROOMY, ROOMY),
        "tight": (ROOMY, cap),
        "squeezed": (cap, cap),
    }[kind]
    return (PoolEntry("knl7210", knl), PoolEntry("xeonmax9480", xeon))


@st.composite
def repeating_mixes(draw):
    """Mixes over a few specs, each repeated with its own weights."""
    specs = draw(st.lists(st.sampled_from(SPECS), min_size=1, max_size=4, unique=True))
    return tuple(
        TrafficItem(
            *draw(st.sampled_from(specs)),
            draw(st.floats(min_value=0.05, max_value=2.0)),
        )
        for _ in range(draw(st.integers(min_value=2, max_value=10)))
    )


class TestDeduplicatedFanOut:
    """Pricing each distinct spec once changes no plan."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        mix=repeating_mixes(),
        objective=st.sampled_from(("runtime", "energy")),
        pool_kind=st.sampled_from(("loose", "tight", "squeezed")),
    )
    def test_plans_match_the_per_item_reference(
        self, predictor, mix, objective, pool_kind
    ):
        planner = CapacityPlanner(predictor)
        reference = ReferencePlanner(predictor)
        loose = PlanRequest(mix=mix, pool=_pool("loose", 0.0), objective=objective)
        try:
            unconstrained = reference.plan(loose)
        except InfeasiblePlanError:
            # Some item has no candidate anywhere: both must say so.
            assert _canonical(planner, loose) == _canonical(reference, loose)
            return
        load = sum(a.load_nodes for a in unconstrained.assignments)
        request = PlanRequest(mix=mix, pool=_pool(pool_kind, load), objective=objective)
        served = _canonical(planner, request)
        assert served == _canonical(reference, request)
        if served.startswith("infeasible"):
            return
        result = planner.plan(request)
        assert check_plan(request, result) == []
        for assignment in result.assignments:
            direct = predictor.predict(
                Query(
                    workload=assignment.item.workload,
                    size_gb=assignment.item.size_gb,
                    config=assignment.config,
                    num_threads=assignment.item.num_threads,
                    machine=assignment.machine,
                )
            )
            assert direct.time_ns == assignment.time_ns

    def test_repeated_items_get_their_own_candidates(self, planner):
        item = MIX[0]
        request = PlanRequest(
            mix=(item, TrafficItem(item.workload, item.size_gb, item.num_threads, 0.5)),
            pool=POOL,
        )
        first, second = planner._candidates(request)
        assert len(first) == len(second) > 0
        for a, b in zip(first, second):
            assert a is not b
            assert (a.item_index, b.item_index) == (0, 1)
            assert a.result.time_ns == b.result.time_ns
            assert b.load_nodes == 0.5 * b.result.time_ns * 1e-9

    def test_distinct_specs_are_resolved_once(self, predictor, monkeypatch):
        calls = []
        resolve = predictor.resolve
        monkeypatch.setattr(
            predictor, "resolve", lambda query: calls.append(query) or resolve(query)
        )
        request = PlanRequest(mix=MIX * 4, pool=POOL)
        result = CapacityPlanner(predictor).plan(request)
        assert len(calls) == request.candidate_count() // 4
        assert len(result.assignments) == 4 * len(MIX)

