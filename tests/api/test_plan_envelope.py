"""The `/v1/plan` body encoder (`repro.api.envelope.plan_envelope_bytes`).

The oracle is the stdlib encoder the service used before:
``json.dumps(success_envelope(plan=result.to_dict(), meta=meta),
sort_keys=True)``.  Plans come from the planner itself, from
``PlanResult.from_dict`` (the shard router's path), and from trusted
assignments carrying the values a naive encoder gets wrong: numpy
float64, ``-0.0`` next to ``0.0``, subnormal and 1e16-scale floats,
non-ASCII text.
"""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api.envelope import plan_envelope_bytes, success_envelope
from repro.api.facade import Predictor
from repro.api.plan import (
    OBJECTIVES,
    MachineLoad,
    PlanAssignment,
    PlanRequest,
    PlanResult,
    PoolEntry,
    TrafficItem,
)
from repro.plan.planner import CapacityPlanner


def _oracle(result: PlanResult, meta: dict) -> bytes:
    envelope = success_envelope(plan=result.to_dict(), meta=meta)
    return json.dumps(envelope, sort_keys=True).encode("utf-8")


def _routed(result: PlanResult) -> PlanResult:
    """``result`` as the router holds it: off the wire, re-validated."""
    return PlanResult.from_dict(json.loads(json.dumps(result.to_dict())))


#: Floats that stress ``float.__repr__``: signed zeros, the smallest
#: subnormal and normal, and values at 1e16, where repr switches to
#: exponent notation.
EDGE_FLOATS = (
    0.0,
    -0.0,
    5e-324,
    2.2250738585072014e-308,
    1e16,
    1.0000000000000002e16,
    9999999999999998.0,
    0.1,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.sampled_from([x for x in EDGE_FLOATS if x >= 0]) | st.floats(
    min_value=0.0, allow_nan=False, allow_infinity=False
)
positive = st.sampled_from([x for x in EDGE_FLOATS if x > 0]) | st.floats(
    min_value=5e-324, allow_nan=False, allow_infinity=False
)
signed = st.sampled_from(EDGE_FLOATS) | finite
text = st.sampled_from(
    ["bandwidth", "GB/s", "µs", "Zeit (Sekunden)", "吞吐量", "\"q\"\n"]
)
metas = st.fixed_dictionaries(
    {
        "items": st.integers(min_value=1, max_value=10_000),
        "pool": st.integers(min_value=1, max_value=8),
        "candidates": st.integers(min_value=1, max_value=100_000),
        "elapsed_ms": non_negative,
    }
)


@st.composite
def options(draw):
    """One priced (spec, machine, config) option, as assignment fields
    other than the item's weight and the load."""
    energy = draw(non_negative)
    if draw(st.booleans()):
        energy = np.float64(energy)
    return {
        "workload": draw(st.sampled_from(["dgemm", "gups", "minife"])),
        "size_gb": draw(positive),
        "num_threads": draw(st.sampled_from([1, 16, 64, 256])),
        "machine": draw(st.sampled_from(["knl7210", "xeonmax9480"])),
        "config": draw(st.sampled_from(["DRAM", "HBM", "Cache Mode"])),
        "time_ns": draw(positive),
        "metric": draw(signed),
        "metric_name": draw(text),
        "metric_unit": draw(text),
        "energy_j": energy,
    }


@st.composite
def trusted_plans(draw):
    """Plans assembled like the planner's (trusted constructors), whose
    items repeat a few drawn options at drawn weights."""
    catalogue = draw(st.lists(options(), min_size=1, max_size=4))
    assignments = []
    drawn = draw(st.lists(st.sampled_from(catalogue), min_size=1, max_size=12))
    for option in drawn:
        fields = dict(option)
        item = TrafficItem._trusted(
            fields.pop("workload"),
            fields.pop("size_gb"),
            fields.pop("num_threads"),
            draw(positive),
        )
        load = draw(non_negative)
        assignments.append(
            PlanAssignment._trusted(item=item, load_nodes=load, **fields)
        )
    loads = tuple(
        MachineLoad(m, draw(st.integers(1, 99)), draw(non_negative))
        for m in ("knl7210", "xeonmax9480")
    )
    return PlanResult(
        assignments=tuple(assignments),
        objective=draw(st.sampled_from(OBJECTIVES)),
        objective_value=draw(non_negative),
        loads=loads,
    )


@given(result=trusted_plans(), meta=metas)
def test_trusted_plans_encode_byte_identically(result, meta):
    assert plan_envelope_bytes(result, meta) == _oracle(result, meta)


@given(result=trusted_plans(), meta=metas)
def test_routed_plans_encode_byte_identically(result, meta):
    routed = _routed(result)
    assert plan_envelope_bytes(routed, meta) == _oracle(routed, meta)


@functools.cache
def _planner() -> CapacityPlanner:
    return CapacityPlanner(Predictor())


_SPECS = [
    ("dgemm", 4.0, 64),
    ("gups", 2.0, 32),
    ("minife", 8.0, 64),
    ("xsbench", 3.5, 16),
]


@st.composite
def planned(draw):
    """A planner answer over a roomy pool; items repeat a few specs."""
    mix = tuple(
        TrafficItem(*draw(st.sampled_from(_SPECS)), draw(st.floats(0.001, 2.0)))
        for _ in range(draw(st.integers(1, 10)))
    )
    pool = (PoolEntry("knl7210", 10_000), PoolEntry("xeonmax9480", 10_000))
    objective = draw(st.sampled_from(OBJECTIVES))
    return _planner().plan(PlanRequest(mix=mix, pool=pool, objective=objective))


@given(result=planned(), meta=metas)
def test_planner_plans_encode_byte_identically(result, meta):
    assert plan_envelope_bytes(result, meta) == _oracle(result, meta)
    routed = _routed(result)
    assert plan_envelope_bytes(routed, meta) == _oracle(routed, meta)


def _assignment(metric, energy_j, num_threads=64):
    return PlanAssignment._trusted(
        item=TrafficItem._trusted("dgemm", 4.0, num_threads, 1.0),
        machine="knl7210",
        config="HBM",
        time_ns=1e9,
        metric=metric,
        metric_name="bandwidth",
        metric_unit="GB/s",
        load_nodes=1.0,
        energy_j=energy_j,
    )


@pytest.mark.parametrize(
    "first, second",
    [
        ((0.0, 1.0), (-0.0, 1.0)),
        ((1.0, 2.0), (1.0, np.float64(2.0))),
        ((1.0, 2.0), (1, 2)),
        ((1.0, 2.0, 1), (1.0, 2.0, True)),
    ],
    ids=["signed-zero", "numpy-float64", "int-vs-float", "bool-vs-int"],
)
def test_equal_but_differently_written_values_get_their_own_text(first, second):
    """Values that compare equal but encode differently never share a
    fragment, in either order."""
    meta = {"items": 2}
    for pair in ((first, second), (second, first)):
        result = PlanResult(
            assignments=tuple(_assignment(*values) for values in pair),
            objective="runtime",
            objective_value=2.0,
            loads=(MachineLoad("knl7210", 4, 2.0),),
        )
        assert plan_envelope_bytes(result, meta) == _oracle(result, meta)
