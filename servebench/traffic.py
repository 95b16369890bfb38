"""Seeded request generators for the four workloads.

Everything a run sends is built here, from ``--seed`` alone, before the
server starts: the same seed gives the same request sequence.
"Never-seen" is decided by the service's own
:meth:`repro.api.facade.Predictor.cache_key`, not by float value —
size constructors quantize (DGEMM rounds to a matrix order, GUPS and
Graph500 to powers of two), so two different sizes can share a run key
and turn a planned miss into a hit.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from repro.api.errors import InfeasiblePlanError
from repro.api.facade import Predictor
from repro.api.plan import PlanRequest, PoolEntry, TrafficItem
from repro.api.types import Query, QueryGrid
from repro.plan.planner import CapacityPlanner

from servebench.client import Request, post

WORKLOADS = ("grid-miss", "point-hit", "plan", "point-miss-routed")

PAPER_TRIO = ("DRAM", "HBM", "Cache Mode")
MACHINES = ("knl7210", "xeonmax9480")
ALL_WORKLOADS = ("dgemm", "minife", "gups", "graph500", "xsbench")
#: Workloads whose size constructors give a distinct run key for almost
#: every megabyte; GUPS and Graph500 have ~10 keys between 0.25 and
#: 96 GB, too few to keep a fresh-key stream going.
FINE_WORKLOADS = ("dgemm", "minife", "xsbench")
#: MiniFE's cubic mesh gives only ~300 keys between 0.5 and 24 GB, too
#: few for a stream of 16-size grids; DGEMM and XSBench give ~3600 each.
GRID_WORKLOADS = ("dgemm", "xsbench")
#: Disjoint thread pairs (all valid on both machines) the grids rotate.
_THREAD_PAIRS = ((16, 32), (24, 48), (40, 56), (64, 96))

#: The set-up probe: the first request every freshly spawned server
#: answers.  GUPS is never in a fresh-key stream, so the probe never
#: turns a planned miss into a hit.
PROBE_QUERY = Query("gups", 4.0, "DRAM", 64, "knl7210")

#: Window length in requests per ``--seconds``: the closed-loop rate each
#: workload reached on a 2-vCPU host.  The window is a fixed request
#: sequence, not a clock, so every run of a seed does the same work and
#: (on grid-miss) ends with the same table; it lasts about ``--seconds``
#: on that host.
NOMINAL_RATE = {
    "grid-miss": 9.0,
    "point-hit": 4500.0,
    "plan": 8.0,
    "point-miss-routed": 235.0,
}


@dataclass(frozen=True)
class PlanTag:
    """What the verifier needs to check one ``/v1/plan`` answer."""

    request: PlanRequest
    expected: str  # canonical JSON of the in-process plan


@dataclass
class Traffic:
    """Every request of one run, in the order it is sent."""

    name: str
    replicas: int
    lanes: int  # keep-alive connections, one request in flight each
    probe: Request
    priming: list[Request]  # sent one by one before the warm-up
    warmup: list[Request]
    window: list[Request]
    notes: dict[str, object] = field(default_factory=dict)


def predict_request(queries: tuple[Query, ...], payload: dict) -> Request:
    return post("/v1/predict", payload, len(queries), queries)


def query_request(query: Query) -> Request:
    return predict_request((query,), {"query": query.to_dict()})


def plan_request(request: PlanRequest, expected: str) -> Request:
    return post(
        "/v1/plan",
        {"plan": request.to_dict()},
        request.candidate_count(),
        PlanTag(request, expected),
    )


class FreshKeys:
    """Hands out queries whose run key nobody has seen in this run."""

    def __init__(self, keyer: Predictor) -> None:
        self.keyer = keyer
        self.seen = {keyer.cache_key(PROBE_QUERY)}
        self.attempts = 0

    def claim(self, queries: list[Query]) -> bool:
        """Reserve the queries' keys; ``False`` (nothing reserved) if any
        key was already seen or two of them collide."""
        self.attempts += 1
        if self.attempts > 100 * len(self.seen) + 10_000:
            raise RuntimeError("the fresh-key space is used up; widen the sizes")
        keys = {self.keyer.cache_key(q) for q in queries}
        if len(keys) != len(queries) or not keys.isdisjoint(self.seen):
            return False
        self.seen |= keys
        return True


def _size(rng: random.Random, low: float, high: float) -> float:
    return round(rng.uniform(low, high), 3)


def grid_miss(rng: random.Random, count: int, keyer: Predictor) -> tuple:
    """Dense 192-point grids whose every point is a never-seen run key.

    Machines alternate every other request and thread pairs rotate
    through disjoint pairs: a size is fresh when its run key is new for
    the request's machine and thread pair, which keeps enough fresh
    sizes in reach for a long run.
    """
    fresh = FreshKeys(keyer)

    def make(j: int) -> Request:
        machine = MACHINES[(j // 2) % 2]
        threads = _THREAD_PAIRS[(j // 4) % len(_THREAD_PAIRS)]
        sizes: list[float] = []
        while len(sizes) < 16:
            size = _size(rng, 0.5, 24.0)
            # The run key hashes (machine, workload, config, threads): a
            # key new for one config and one of the pair's thread counts
            # means a workload identity never evaluated with this pair on
            # this machine, so every point it spans is fresh.
            probes = [Query(w, size, "DRAM", threads[0], machine) for w in GRID_WORKLOADS]
            if fresh.claim(probes):
                sizes.append(size)
        grid = QueryGrid(
            workloads=GRID_WORKLOADS,
            sizes_gb=tuple(sizes),
            configs=PAPER_TRIO,
            num_threads=threads,
            machine=machine,
        )
        return predict_request(grid.expand(), {"grid": grid.to_dict()})

    points = len(GRID_WORKLOADS) * 16 * len(PAPER_TRIO) * 2
    return [make(j) for j in range(count)], [], {"grid_points": points}


def point_hit(rng: random.Random, count: int, keyer: Predictor) -> tuple:
    """Single queries drawn from a primed hot set: every answer is a
    result-cache hit."""
    hot_size = 180
    fresh = FreshKeys(keyer)
    hot: list[Query] = []
    while len(hot) < hot_size:
        query = Query(
            rng.choice(ALL_WORKLOADS),
            round(rng.uniform(0.5, 12.0), 2),
            rng.choice(PAPER_TRIO),
            rng.choice((32, 64)),
            rng.choice(MACHINES),
        )
        if fresh.claim([query]):
            hot.append(query)
    singles = [query_request(q) for q in hot]
    priming = predict_request(tuple(hot), {"queries": [q.to_dict() for q in hot]})
    requests = [singles[rng.randrange(hot_size)] for _ in range(count)]
    return requests, [priming], {"hot_set": hot_size}


def point_miss_routed(rng: random.Random, count: int, keyer: Predictor) -> tuple:
    """One never-seen query per request, through the shard router."""
    fresh = FreshKeys(keyer)
    requests: list[Request] = []
    while len(requests) < count:
        query = Query(
            rng.choice(FINE_WORKLOADS),
            _size(rng, 0.5, 24.0),
            rng.choice(PAPER_TRIO),
            rng.choice((32, 64)),
            rng.choice(MACHINES),
        )
        if fresh.claim([query]):
            requests.append(query_request(query))
    return requests, [], {}


def _solve(planner: CapacityPlanner, request: PlanRequest) -> str:
    return json.dumps(planner.plan(request).to_dict(), sort_keys=True)


def plan(rng: random.Random, count: int, keyer: Predictor) -> tuple:
    """Capacity plans over a fixed catalogue: after the priming plan every
    candidate is a run-cache hit, so fan-out and search do the work."""
    mixes, items = 16, 300
    planner = CapacityPlanner(keyer)
    # Every (workload, threads) pair gets one size from each half of the
    # range: the catalogue sets the cost of every candidate, so only the
    # sizes are left to the seed, and seeds differ little in plan cost.
    catalogue = [
        (workload, round(rng.uniform(low, low + 5.75), 2), threads)
        for workload in ALL_WORKLOADS
        for threads in (16, 32, 64, 96)
        for low in (0.5, 6.25)
    ]
    roomy = tuple(PoolEntry(m, 1_000_000) for m in MACHINES)
    priming = PlanRequest(
        mix=tuple(TrafficItem(w, s, t, 1.0) for w, s, t in catalogue), pool=roomy
    )
    pairs: list[list[Request]] = []
    for _ in range(mixes):
        mix = tuple(
            TrafficItem(*rng.choice(catalogue), round(rng.uniform(0.2, 2.0), 3))
            for _ in range(items)
        )
        # Size the pool from the unconstrained optimum: 1.2x its load in
        # total, grown until both objectives have a feasible plan.
        unconstrained = planner.plan(PlanRequest(mix=mix, pool=roomy))
        nodes = math.ceil(0.6 * sum(a.load_nodes for a in unconstrained.assignments)) + 1
        while True:
            pool = tuple(PoolEntry(m, nodes) for m in MACHINES)
            pair = [PlanRequest(mix, pool, objective) for objective in ("runtime", "energy")]
            try:
                pairs.append([plan_request(r, _solve(planner, r)) for r in pair])
                break
            except InfeasiblePlanError:
                nodes = math.ceil(nodes * 1.25)
    # Objectives alternate request by request and the mixes take turns, so
    # every window spends the same share of its requests on each mix.
    requests = [pairs[(j // 2) % mixes][j % 2] for j in range(count)]
    notes = {"catalogue": len(catalogue), "mixes": mixes, "items": items}
    return requests, [plan_request(priming, _solve(planner, priming))], notes


#: name -> (generator, replicas, lanes, warm-up requests)
_SHAPES = {
    "grid-miss": (grid_miss, 1, 2, 2),
    "point-hit": (point_hit, 1, 2, 200),
    "plan": (plan, 1, 1, 4),
    "point-miss-routed": (point_miss_routed, 2, 2, 100),
}


def build(name: str, seed: int, seconds: float) -> Traffic:
    """Every request of one run of workload ``name``."""
    generate, replicas, lanes, warmup = _SHAPES[name]
    window = max(lanes, math.ceil(NOMINAL_RATE[name] * seconds))
    rng = random.Random(f"servebench/{name}/{seed}")
    requests, priming, notes = generate(rng, warmup + window, Predictor())
    return Traffic(
        name=name,
        replicas=replicas,
        lanes=lanes,
        probe=query_request(PROBE_QUERY),
        priming=priming,
        warmup=requests[:warmup],
        window=requests[warmup:],
        notes=notes,
    )
