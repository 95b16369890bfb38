"""Per-layer metrics of the traced pass.

Inputs are the tracer snapshots of every server process taken just
before and just after the traced window (timings are window deltas,
except the set-up quantities, which are process lifetimes), the
``/metrics`` documents of the front process at the same two moments,
and the client's own view of the window.  A metric whose layer did no
work on a workload reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Per-layer metric name -> unit, in reporting order (``BENCHMARK.json``
#: lists the same names).
UNITS = {
    "api.parse_us_per_query": "us",
    "api.cache_key_us_per_query": "us",
    "api.resolve_us_per_query": "us",
    "api.key_calls_per_query": "count",
    "api.to_dict_us_per_result": "us",
    "http.overhead_us_per_request": "us",
    "http.response_kb_per_request": "kB",
    "service.handle_us_per_request": "us",
    "service.cache_hit_ratio": "ratio",
    "service.cache_get_us": "us",
    "service.rejected": "count",
    "service.deadline_exceeded": "count",
    "coalescer.batch_size_mean": "queries",
    "coalescer.batches": "count",
    "coalescer.wait_ms_mean": "ms",
    "router.handle_us_per_request": "us",
    "router.forward_ms_mean": "ms",
    "router.cache_hit_ratio": "ratio",
    "router.retries": "count",
    "executor.run_cells_us_per_cell": "us",
    "executor.cache_key_us_per_cell": "us",
    "executor.hit_ratio": "ratio",
    "executor.batched_cells": "count",
    "executor.scalar_cells": "count",
    "runner.run_us_per_cell": "us",
    "batch.evaluate_us_per_point": "us",
    "table_cache.store_ms_per_call": "ms",
    "table_cache.stores_per_batch": "count",
    "table_cache.store_share": "ratio",
    "table_cache.load_ms_total": "ms",
    "table_cache.dir_mb": "MiB",
    "warmup.prewarm_s": "s",
    "energy.estimate_us_per_candidate": "us",
    "plan.solve_ms_mean": "ms",
    "plan.candidates_ms_mean": "ms",
    "plan.search_ms_mean": "ms",
    "plan.audit_ms_mean": "ms",
    "plan.candidates_per_plan": "count",
    "trace.overhead_ratio": "ratio",
}

_CALLS, _TOTAL, _SELF, _ITEMS, _ITEMS_X_TOTAL = range(5)

#: Callees of ``CapacityPlanner.plan`` that make up candidate fan-out.
_FAN_OUT = ("Predictor.resolve", "SweepExecutor.run_cells", "EnergyModel.estimate_record")


def _sub(after: dict[str, list[int]], before: dict[str, list[int]]) -> dict[str, list[int]]:
    return {
        name: [a - b for a, b in zip(values, before.get(name, [0] * len(values)))]
        for name, values in after.items()
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _Stats:
    """Tracer counters summed over a set of processes."""

    def __init__(self, stats: list[dict[str, list[int]]], edges: list[dict[str, list[int]]]):
        self._stats: dict[str, list[int]] = {}
        self._edges: dict[str, list[int]] = {}
        for source, target in ((stats, self._stats), (edges, self._edges)):
            for table in source:
                for name, values in table.items():
                    total = target.setdefault(name, [0] * len(values))
                    for i, value in enumerate(values):
                        total[i] += value

    def get(self, name: str, field: int) -> int:
        return self._stats.get(name, [0] * 5)[field]

    def edge(self, caller: str, callee: str, field: int) -> int:
        return self._edges.get(f"{caller}>{callee}", [0, 0])[field]

    def mean_ns(self, name: str) -> float:
        return _ratio(self.get(name, _TOTAL), self.get(name, _CALLS))


@dataclass
class TracedWindow:
    """Everything the analysis reads about one traced window."""

    before: list[dict[str, Any]]  # tracer snapshots, one per process
    after: list[dict[str, Any]]
    metrics_before: dict[str, Any]  # front process /metrics
    metrics_after: dict[str, Any]
    routed: bool
    queries: int
    client_latency_mean_s: float
    response_bytes_mean: float
    table_dir_mib: float
    traced_p50_ms: float
    untraced_p50_ms: float


def _deltas(window: TracedWindow, roles: tuple[str, ...]) -> _Stats:
    before = {s["pid"]: s for s in window.before}
    stats, edges = [], []
    for snap in window.after:
        if snap["role"] not in roles:
            continue
        prior = before.get(snap["pid"], {"stats": {}, "edges": {}})
        stats.append(_sub(snap["stats"], prior["stats"]))
        edges.append(_sub(snap["edges"], prior["edges"]))
    return _Stats(stats, edges)


def _lifetime(window: TracedWindow) -> _Stats:
    return _Stats([s["stats"] for s in window.after], [s["edges"] for s in window.after])


def _counter(block: dict[str, Any], prefix: str) -> float:
    """Sum of a registry's counters named ``prefix`` (any labels)."""
    counters = block.get("counters", {})
    return sum(
        v for k, v in counters.items() if k == prefix or k.startswith(prefix + "{")
    )


def _blocks(document: dict[str, Any], routed: bool) -> dict[str, Any]:
    """The service-side blocks of a /metrics document, fleet-summed."""
    if not routed:
        return {
            "service": document.get("service", {}),
            "cache": document.get("cache", {}),
            "coalescer": document.get("coalescer", {}),
            "executor": document.get("executor", {}),
            "router": {},
            "router_cache": {},
        }
    aggregate = document.get("aggregate", {})
    coalescer: dict[str, float] = {}
    for snapshot in document.get("replicas", {}).values():
        for name, value in snapshot.get("coalescer", {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                coalescer[name] = coalescer.get(name, 0) + value
    return {
        "service": aggregate.get("service", {}),
        "cache": aggregate.get("cache", {}),
        "coalescer": coalescer,
        "executor": aggregate.get("executor", {}),
        "router": document.get("service", {}),
        "router_cache": document.get("cache", {}),
    }


def per_layer(window: TracedWindow) -> dict[str, float]:
    """Every per-layer metric (see :data:`UNITS`) of one traced window."""
    fleet = _deltas(window, ("service", "replica", "router"))
    services = _deltas(window, ("service", "replica"))
    router = _deltas(window, ("router",))
    life = _lifetime(window)
    old = _blocks(window.metrics_before, window.routed)
    new = _blocks(window.metrics_after, window.routed)

    def delta(block: str, name: str) -> float:
        return new[block].get(name, 0) - old[block].get(name, 0)

    def counter(block: str, name: str) -> float:
        return _counter(new[block], name) - _counter(old[block], name)

    queries = window.queries
    key_calls = (
        fleet.get("Predictor.cache_key", _CALLS)
        + fleet.get("SweepExecutor.cache_key", _CALLS)
        - fleet.edge("Predictor.cache_key", "SweepExecutor.cache_key", _CALLS)
    )
    handlers = ("PredictionService.handle_predict", "PredictionService.handle_plan")
    handled_ns = sum(services.get(h, _TOTAL) for h in handlers)
    handled = sum(services.get(h, _CALLS) for h in handlers)
    front = router if window.routed else services
    front_names = ("ShardRouter.handle_predict",) if window.routed else handlers
    front_ns = sum(front.get(h, _TOTAL) for h in front_names)
    front_calls = sum(front.get(h, _CALLS) for h in front_names)
    cache_hits, cache_misses = delta("cache", "hits"), delta("cache", "misses")
    router_hits = delta("router_cache", "hits")
    router_misses = delta("router_cache", "misses")
    executor_hits, executor_misses = delta("executor", "hits"), delta("executor", "misses")
    batches = delta("coalescer", "batches")
    waits = services.get("Coalescer.wait", _CALLS)
    # Each query waited through its batch's predict_many; take that out.
    wait_ns = services.get("Coalescer.wait", _TOTAL) - services.get(
        "Predictor.predict_many", _ITEMS_X_TOTAL
    )
    plans = fleet.get("CapacityPlanner.plan", _CALLS)
    fan_out_ns = sum(fleet.edge("CapacityPlanner.plan", c, _TOTAL) for c in _FAN_OUT)
    values = {
        "api.parse_us_per_query": _ratio(
            fleet.get("PredictionService.parse_queries", _TOTAL), queries * 1e3
        ),
        "api.cache_key_us_per_query": _ratio(
            fleet.get("Predictor.cache_key", _TOTAL), queries * 1e3
        ),
        "api.resolve_us_per_query": _ratio(
            fleet.get("Predictor.resolve", _TOTAL), queries * 1e3
        ),
        "api.key_calls_per_query": _ratio(key_calls, queries),
        "api.to_dict_us_per_result": fleet.mean_ns("PredictionResult.to_dict") / 1e3,
        "http.overhead_us_per_request": (
            window.client_latency_mean_s * 1e6 - _ratio(front_ns, front_calls) / 1e3
        ),
        "http.response_kb_per_request": window.response_bytes_mean / 1e3,
        "service.handle_us_per_request": _ratio(handled_ns, handled) / 1e3,
        "service.cache_hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "service.cache_get_us": fleet.mean_ns("TTLCache.get") / 1e3,
        "service.rejected": counter("service", "serve.rejected")
        + counter("router", "router.rejected"),
        "service.deadline_exceeded": counter("service", "serve.deadline_exceeded")
        + counter("router", "router.deadline_exceeded"),
        "coalescer.batch_size_mean": _ratio(delta("coalescer", "batched_queries"), batches),
        "coalescer.batches": batches,
        "coalescer.wait_ms_mean": _ratio(wait_ns, waits) / 1e6,
        "router.handle_us_per_request": _ratio(
            router.get("ShardRouter.handle_predict", _SELF),
            router.get("ShardRouter.handle_predict", _CALLS),
        )
        / 1e3,
        "router.forward_ms_mean": router.mean_ns("ServeClient.predict_many") / 1e6,
        "router.cache_hit_ratio": _ratio(router_hits, router_hits + router_misses),
        "router.retries": counter("router", "router.failovers")
        + counter("router", "router.replica_busy"),
        "executor.run_cells_us_per_cell": _ratio(
            fleet.get("SweepExecutor.run_cells", _SELF),
            fleet.get("SweepExecutor.run_cells", _ITEMS) * 1e3,
        ),
        "executor.cache_key_us_per_cell": fleet.mean_ns("SweepExecutor.cache_key") / 1e3,
        "executor.hit_ratio": _ratio(executor_hits, executor_hits + executor_misses),
        "executor.batched_cells": delta("executor", "batched_cells"),
        "executor.scalar_cells": delta("executor", "executed")
        - delta("executor", "batched_cells"),
        "runner.run_us_per_cell": fleet.mean_ns("ExperimentRunner.run") / 1e3,
        "batch.evaluate_us_per_point": _ratio(
            fleet.get("BatchEvaluator.evaluate", _SELF),
            fleet.get("BatchEvaluator.evaluate", _ITEMS) * 1e3,
        ),
        "table_cache.store_ms_per_call": fleet.mean_ns("TableCache.store") / 1e6,
        "table_cache.stores_per_batch": _ratio(
            services.get("TableCache.store", _CALLS),
            services.get("Predictor.predict_many", _CALLS),
        ),
        "table_cache.store_share": _ratio(
            services.get("TableCache.store", _TOTAL),
            services.get("Predictor.predict_many", _TOTAL),
        ),
        "table_cache.load_ms_total": life.get("TableCache.load", _TOTAL) / 1e6,
        "table_cache.dir_mb": window.table_dir_mib,
        "warmup.prewarm_s": life.get("prewarm_tables", _TOTAL) / 1e9,
        "energy.estimate_us_per_candidate": fleet.mean_ns("EnergyModel.estimate_record")
        / 1e3,
        "plan.solve_ms_mean": fleet.mean_ns("CapacityPlanner.plan") / 1e6,
        "plan.candidates_ms_mean": _ratio(fan_out_ns, plans) / 1e6,
        "plan.search_ms_mean": _ratio(fleet.get("CapacityPlanner.plan", _SELF), plans)
        / 1e6,
        "plan.audit_ms_mean": _ratio(
            fleet.edge("CapacityPlanner.plan", "check_plan", _TOTAL), plans
        )
        / 1e6,
        "plan.candidates_per_plan": _ratio(
            fleet.edge("CapacityPlanner.plan", "Predictor.resolve", _CALLS), plans
        ),
        "trace.overhead_ratio": _ratio(window.traced_p50_ms, window.untraced_p50_ms),
    }
    assert list(values) == list(UNITS)
    return values
