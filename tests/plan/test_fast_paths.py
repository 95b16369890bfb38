"""The warm planner's per-option fast paths against the per-item oracle.

A warm :class:`~repro.plan.planner.CapacityPlanner` ranks each spec's
options once per pool and objective, re-sorts an item only where two of
its products round equal, builds assignments from per-option templates
and hands the encoder pre-encoded fragments.  Each
of those must leave every answer byte-identical to
:class:`~tests.plan.reference_planner.ReferencePlanner`, which prices and
sorts every item on its own.

The model's real predictions are never adversarial, so the engine is
replaced here by a table of crafted unit costs, identical for both
planners: costs one ulp apart, exactly equal, in near pairs, and far
apart, under weights at and beyond the edges of the normal float range.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.envelope import plan_envelope_bytes, success_envelope
from repro.api.errors import ApiError
from repro.api.facade import Predictor
from repro.api.plan import PlanRequest, PoolEntry, TrafficItem
from repro.core.executor import SweepExecutor
from repro.engine.energy import EnergyModel
from repro.plan.planner import CapacityPlanner
from tests.plan.reference_planner import ReferencePlanner

MACHINES = ("knl7210", "xeonmax9480")
CONFIGS = ("Cache Mode", "DRAM", "HBM")
#: Each option's position in (machine, config) order.
POSITION = {
    (machine, config): i
    for i, (machine, config) in enumerate(
        (m, c) for m in MACHINES for c in CONFIGS
    )
}
#: The display names the executors' machine models carry.
DISPLAY = {"Intel Xeon Phi 7210": "knl7210", "Intel Xeon Max 9480": "xeonmax9480"}

T = 763798241.5147164


def _ulps(x: float, n: int) -> float:
    for _ in range(n):
        x = math.nextafter(x, math.inf)
    return x


#: Unit costs by option position.  Each list runs against (machine,
#: config) order, so wherever a weight rounds two products equal the
#: item's order must flip back to (machine, config).
UNITS = {
    "one-ulp": [_ulps(T, 5 - i) for i in range(6)],
    "equal": [T] * 6,
    "pairs": [_ulps(T, 1), T * 2.0, T, _ulps(T, 1), T, T * (1 + 2e-12)],
    "far": [T * (1.5 ** (5 - i)) for i in range(6)],
}

#: Weights whose products sit well inside, at, and beyond the edges of
#: the normal range, for a unit cost near ``T``.
EDGE_WEIGHTS = (
    1.0,
    0.659,
    sys.float_info.min / (T * 1e-9),
    math.nextafter(sys.float_info.min / (T * 1e-9), 0.0),
    sys.float_info.min / T,
    1e-300,
    5e-324,
    sys.float_info.max / T,
    1e300,
)

ROOMY = 10**9


class CraftedEngine:
    """Run records whose time and energy come from one ``UNITS`` row."""

    def __init__(self, units: list[float]) -> None:
        self.units = units

    def run_cells(self, executor, cells):
        machine = DISPLAY[executor.machine.name]
        records = []
        for cell in cells:
            unit = self.units[POSITION[machine, cell.config.name.value]]
            records.append(
                SimpleNamespace(
                    infeasible_reason=None,
                    metric=1.0,
                    metric_name="throughput",
                    metric_unit="GB/s",
                    run_result=SimpleNamespace(time_ns=unit, energy_j=unit),
                )
            )
        return records

    @staticmethod
    def estimate_record(model, workload, record):
        return SimpleNamespace(total_j=record.run_result.energy_j)

    def install(self, patch: pytest.MonkeyPatch) -> None:
        engine = self
        patch.setattr(
            SweepExecutor,
            "run_cells",
            lambda executor, cells: engine.run_cells(executor, cells),
        )
        patch.setattr(EnergyModel, "estimate_record", self.estimate_record)


def _answer(planner, request: PlanRequest) -> str:
    """The plan's exact wire text, or the typed error it raised."""
    try:
        result = planner.plan(request)
    except ApiError as exc:
        return f"{type(exc).__name__}: {exc} {json.dumps(exc.details, sort_keys=True)}"
    meta = {"items": len(request.mix)}
    encoded = plan_envelope_bytes(result, meta)
    oracle = json.dumps(
        success_envelope(plan=result.to_dict(), meta=meta), sort_keys=True
    ).encode()
    assert encoded == oracle
    return encoded.decode()


def _request(weights, objective: str, nodes: int = ROOMY) -> PlanRequest:
    specs = (("dgemm", 4.0, 64), ("gups", 2.0, 32))
    return PlanRequest(
        mix=tuple(
            TrafficItem(*specs[i % 2], weight) for i, weight in enumerate(weights)
        ),
        pool=tuple(PoolEntry(machine, nodes) for machine in MACHINES),
        objective=objective,
    )


@pytest.fixture(scope="module")
def predictor():
    return Predictor()


@pytest.mark.parametrize("objective", ("runtime", "energy"))
@pytest.mark.parametrize("scenario", sorted(UNITS))
def test_edge_weights_match_the_reference(predictor, scenario, objective):
    with pytest.MonkeyPatch.context() as patch:
        CraftedEngine(UNITS[scenario]).install(patch)
        for weight in EDGE_WEIGHTS:
            request = _request([weight, weight, 1.0], objective)
            served = _answer(CapacityPlanner(predictor), request)
            assert served == _answer(ReferencePlanner(predictor), request), weight


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scenario=st.sampled_from(sorted(UNITS)),
    objective=st.sampled_from(("runtime", "energy")),
    weights=st.lists(
        st.sampled_from(EDGE_WEIGHTS)
        | st.floats(min_value=5e-324, max_value=1e300),
        min_size=1,
        max_size=8,
    ),
    nodes=st.sampled_from((1, 3, ROOMY)),
)
def test_drawn_weights_match_the_reference(
    predictor, scenario, objective, weights, nodes
):
    with pytest.MonkeyPatch.context() as patch:
        CraftedEngine(UNITS[scenario]).install(patch)
        request = _request(weights, objective, nodes)
        served = _answer(CapacityPlanner(predictor), request)
        assert served == _answer(ReferencePlanner(predictor), request)


@pytest.mark.parametrize("scenario", sorted(UNITS))
def test_a_warm_planner_re_solves_a_sequence(predictor, scenario):
    """One planner answers many plans over the same specs (both
    objectives, other pools and weights, explicit config subsets), twice
    over; each answer is the cold reference's."""
    sequence = [
        _request([1.0, 0.5, 2.0], "runtime"),
        _request([1.0, 0.5, 2.0], "energy"),
        _request([0.659, EDGE_WEIGHTS[2], 3.0, 1e-300], "runtime", nodes=3),
        _request([EDGE_WEIGHTS[3], 0.25], "energy", nodes=1),
        PlanRequest(
            mix=(TrafficItem("dgemm", 4.0, 64, 0.75),),
            pool=(
                PoolEntry("knl7210", ROOMY, configs=("HBM", "DRAM")),
                PoolEntry("xeonmax9480", ROOMY, configs=("Cache Mode",)),
            ),
        ),
        _request([sys.float_info.max / T, 1.0], "runtime"),
        _request([1.0, 0.5, 2.0], "runtime"),
    ]
    with pytest.MonkeyPatch.context() as patch:
        CraftedEngine(UNITS[scenario]).install(patch)
        planner = CapacityPlanner(predictor)
        first = [_answer(planner, request) for request in sequence]
        assert first == [
            _answer(ReferencePlanner(predictor), request) for request in sequence
        ]
        assert [_answer(planner, request) for request in sequence] == first
    # Both specs over the full pool under both objectives (node counts
    # are no part of the key), and one spec over the config subset.
    assert len(planner._columns_memo) == 5


def test_planner_assignments_carry_their_option_text(predictor):
    result = CapacityPlanner(predictor).plan(_request([1.0, 0.5, 2.0], "energy"))
    assert all(a.encoded is not None for a in result.assignments)
    # The text belongs to the assignment, not to a copy of it.
    moved = dataclasses.replace(result.assignments[0], load_nodes=0.0)
    assert moved.encoded is None


def test_the_columns_memo_stays_within_the_run_cache_bound():
    predictor = Predictor(cache_size=2)
    planner = CapacityPlanner(predictor)
    mixes = [
        (("dgemm", 4.0, 64), ("gups", 2.0, 32), ("minife", 8.0, 64)),
        (("xsbench", 3.5, 16), ("dgemm", 4.0, 64)),
        (("gups", 2.0, 32), ("graph500", 6.0, 64), ("minife", 8.0, 64)),
    ]
    with pytest.MonkeyPatch.context() as patch:
        CraftedEngine(UNITS["pairs"]).install(patch)
        for objective in ("runtime", "energy"):
            for specs in mixes:
                request = PlanRequest(
                    mix=tuple(TrafficItem(*spec, 0.5) for spec in specs),
                    pool=tuple(PoolEntry(machine, ROOMY) for machine in MACHINES),
                    objective=objective,
                )
                assert _answer(planner, request) == _answer(
                    ReferencePlanner(Predictor()), request
                )
                assert len(planner._columns_memo) <= 2
