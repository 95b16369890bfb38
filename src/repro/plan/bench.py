"""Planner latency benchmark (``repro bench plan``).

Measures how long :class:`~repro.plan.planner.CapacityPlanner` takes to
solve deterministic synthetic fleets of growing size (default 10, 100
and 1000 mix items) and records the curve into ``BENCH_plan.json``
through the history-carrying BENCH writer
(:func:`repro.core.perfbench.write_bench_json`), so re-runs accumulate a
trajectory instead of overwriting it.

Honesty rules:

* every fleet size is solved :data:`REPEATS` times **cold**, each on a
  fresh predictor and planner — otherwise the run cache and the
  planner's priced-option memo, warmed by one solve, make the next
  artificially fast — and recorded as the median with its IQR, since a
  single solve is noise;
* a **warm** row times :data:`REPEATS` repeat solves on the last cold
  planner, which shows what the memo saves a long-lived server;
* the served path's two other stages are timed :data:`REPEATS` times
  each, warm, around the solve: ``parse`` is
  :meth:`~repro.api.plan.PlanRequest.from_dict` of the request's wire
  form, ``encode`` is
  :func:`~repro.api.envelope.plan_envelope_bytes` of its plan;
* the synthetic mix is a pure function of the item index (no
  randomness), so the measured problem is identical across runs and
  machines;
* if a fleet does not fit the starting pool, the pool's node counts are
  escalated deterministically, on a planner of its own, until it does;
  only solves of the fitting request are timed (the escalation count is
  recorded);
* the host's speed drifts, so every run also times a fixed pure-Python
  kernel (:func:`host_probe_ms`) before and after the fleets, and its
  history row carries the median: two rows compare fairly only
  alongside their probes.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Sequence

from repro.api.envelope import plan_envelope_bytes
from repro.api.errors import InfeasiblePlanError
from repro.api.facade import Predictor
from repro.api.plan import PlanRequest, PlanResult, PoolEntry, TrafficItem
from repro.plan.planner import CapacityPlanner

__all__ = [
    "DEFAULT_FLEET_SIZES",
    "REPEATS",
    "host_probe_ms",
    "synthetic_request",
    "measure_plan",
    "history_row",
]

DEFAULT_FLEET_SIZES = (10, 100, 1000)

#: Cold solves per fleet size (and warm repeats on the last planner).
REPEATS = 5

#: The deterministic item template cycle: (workload, size_gb, threads).
_ITEM_CYCLE = (
    ("dgemm", 12.0, 64),
    ("minife", 20.0, 64),
    ("gups", 8.0, 32),
    ("graph500", 16.0, 64),
    ("xsbench", 24.0, 128),
    ("minife", 48.0, 64),
    ("dgemm", 30.0, 128),
    ("gups", 4.0, 16),
)

_POOL_MACHINES = ("knl7210", "xeonmax9480")

#: Pool escalation: multiply node counts by this until the mix fits.
_ESCALATION = 8
_MAX_ESCALATIONS = 8


def synthetic_request(
    fleet_size: int,
    *,
    nodes_per_machine: int,
    objective: str = "runtime",
) -> PlanRequest:
    """A deterministic ``fleet_size``-item mix over the two-machine
    benchmark pool."""
    mix = []
    for i in range(fleet_size):
        workload, size_gb, threads = _ITEM_CYCLE[i % len(_ITEM_CYCLE)]
        mix.append(
            TrafficItem(
                workload=workload,
                size_gb=size_gb,
                num_threads=threads,
                # Per-item arrival weight in (0.0005, 0.004]: spread so
                # the packing is non-trivial but bounded.
                weight=0.0005 * (1 + i % 8),
            )
        )
    pool = [
        PoolEntry(machine=machine, nodes=nodes_per_machine)
        for machine in _POOL_MACHINES
    ]
    return PlanRequest(mix=tuple(mix), pool=tuple(pool), objective=objective)


def _fitting_request(
    fleet_size: int, table_cache_dir: Any
) -> tuple[PlanRequest, int, PlanResult]:
    """The fleet's request on the first escalated pool that fits it, the
    number of escalations that took, and its plan."""
    planner = CapacityPlanner(Predictor(table_cache_dir=table_cache_dir))
    nodes = max(4, fleet_size // 4)
    for escalations in range(_MAX_ESCALATIONS):
        request = synthetic_request(fleet_size, nodes_per_machine=nodes)
        try:
            result = planner.plan(request)
        except InfeasiblePlanError:
            nodes *= _ESCALATION
            continue
        return request, escalations, result
    raise InfeasiblePlanError(
        f"synthetic fleet of {fleet_size} never became feasible after "
        f"{_MAX_ESCALATIONS} pool escalations"
    )


def _probe_kernel() -> float:
    """A fixed mix of interpreter work like the planner's (tuple
    building, dict updates, float arithmetic, a keyed sort and float
    formatting) that touches no model code.  Returns a checksum so
    nothing is elided."""
    rows = [(i * 7919 % 997, 0.5 + (i % 11) * 0.25) for i in range(4000)]
    totals: dict[int, float] = {}
    for key, weight in rows:
        totals[key] = totals.get(key, 0.0) + weight * 1e-9
    ranked = sorted(rows, key=lambda row: (row[1], -row[0]))
    text = ",".join(repr(value) for value in totals.values())
    return len(text) + ranked[0][1]


def host_probe_ms() -> float:
    """The host's speed now: the median milliseconds of :data:`REPEATS`
    runs of a fixed pure-Python kernel.  A run whose probe reads 1.5x
    longer than another's ran on a 1.5x slower host (or interpreter)."""
    return statistics.median(_timed_ms(_probe_kernel) for _ in range(REPEATS))


def _timed_ms(call: Callable[[], object]) -> float:
    started = time.perf_counter()
    call()
    return (time.perf_counter() - started) * 1e3


def _median_iqr(samples: Sequence[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return median, q3 - q1


def _measure_fleet(fleet_size: int, table_cache_dir: Any) -> dict[str, Any]:
    """Cold and warm solve times of one synthetic fleet."""
    request, escalations, result = _fitting_request(fleet_size, table_cache_dir)
    cold = []
    for _ in range(REPEATS):
        planner = CapacityPlanner(Predictor(table_cache_dir=table_cache_dir))
        cold.append(_timed_ms(lambda: planner.plan(request)))
    warm = [_timed_ms(lambda: planner.plan(request)) for _ in range(REPEATS)]
    wire = request.to_dict()
    meta = {
        "items": len(request.mix),
        "pool": len(request.pool),
        "candidates": request.candidate_count(),
        "elapsed_ms": warm[-1],
    }
    parse = [_timed_ms(lambda: PlanRequest.from_dict(wire)) for _ in range(REPEATS)]
    encode = [
        _timed_ms(lambda: plan_envelope_bytes(result, meta))
        for _ in range(REPEATS)
    ]
    cold_median, cold_iqr = _median_iqr(cold)
    warm_median, warm_iqr = _median_iqr(warm)
    parse_median, parse_iqr = _median_iqr(parse)
    encode_median, encode_iqr = _median_iqr(encode)
    return {
        "latency_ms": cold_median,
        "iqr_ms": cold_iqr,
        "warm_latency_ms": warm_median,
        "warm_iqr_ms": warm_iqr,
        "parse_ms": parse_median,
        "parse_iqr_ms": parse_iqr,
        "encode_ms": encode_median,
        "encode_iqr_ms": encode_iqr,
        "cold_ms": cold,
        "warm_ms": warm,
        "nodes_per_machine": request.pool[0].nodes,
        "escalations": escalations,
        "candidates": request.candidate_count(),
        "distinct_specs": len(
            {(i.workload, i.size_gb, i.num_threads) for i in request.mix}
        ),
        "objective_value": result.objective_value,
        "assignments": len(result.assignments),
    }


def measure_plan(
    fleet_sizes: Sequence[int] = DEFAULT_FLEET_SIZES,
    *,
    table_cache_dir: Any = None,
) -> dict[str, Any]:
    """The ``repro bench plan`` document: planner latency vs fleet size."""
    probe_before = host_probe_ms()
    details = {
        str(size): _measure_fleet(size, table_cache_dir) for size in fleet_sizes
    }
    probe_after = host_probe_ms()

    def column(name: str) -> dict[str, float]:
        return {size: row[name] for size, row in details.items()}

    return {
        "benchmark": "plan",
        "fleet_sizes": list(fleet_sizes),
        "pool_machines": list(_POOL_MACHINES),
        "host_probe_ms": statistics.median((probe_before, probe_after)),
        "planner": {
            "repeats": REPEATS,
            "latency_ms": column("latency_ms"),
            "iqr_ms": column("iqr_ms"),
            "warm_latency_ms": column("warm_latency_ms"),
            "warm_iqr_ms": column("warm_iqr_ms"),
            "parse_ms": column("parse_ms"),
            "parse_iqr_ms": column("parse_iqr_ms"),
            "encode_ms": column("encode_ms"),
            "encode_iqr_ms": column("encode_iqr_ms"),
            "details": details,
        },
        "note": (
            "Latency of CapacityPlanner.plan on deterministic synthetic "
            "mixes.  latency_ms is the median of `repeats` cold solves, "
            "each on a fresh predictor and planner so neither the run "
            "cache nor the priced-option memo flatters a solve; iqr_ms is "
            "their interquartile range.  warm_latency_ms repeats the solve "
            "on the last cold planner, whose memo already holds every "
            "option: no model evaluation or energy pricing, only ranking, "
            "per-item rows, greedy, assembly and the plan audit.  Options "
            "are priced once per distinct spec x (machine, config), and "
            "the synthetic mix cycles through distinct_specs = 8 specs, so "
            "every fleet size evaluates the same model cells; what grows "
            "with the fleet is per-item work, far below linear in "
            "candidate_count = items x sum(configs per pool entry).  "
            "parse_ms and encode_ms (with their IQRs) are the served "
            "path's other stages, each the median of `repeats` warm "
            "calls: PlanRequest.from_dict of the request's wire form, and "
            "plan_envelope_bytes of its plan (the /v1/plan response body).  "
            "host_probe_ms is the host's speed during the run: the median "
            "time of a fixed pure-Python kernel, timed before and after "
            "the fleets; compare latencies across history rows only "
            "alongside it."
        ),
    }


def history_row(document: dict[str, Any]) -> dict[str, Any]:
    """The compact ``history`` row of a :func:`measure_plan` document:
    its cold median latency per fleet size, and the host's speed."""
    return {
        "plan_latency_ms": dict(document["planner"]["latency_ms"]),
        "host_probe_ms": document["host_probe_ms"],
    }
