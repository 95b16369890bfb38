"""Columnar batch evaluation of the analytic performance model.

The scalar engine answers one query at a time: :meth:`ExperimentRunner.run
<repro.core.runner.ExperimentRunner.run>` boots a :class:`SimulatedOS`,
parses the numactl policy, allocates the problem and walks the profile's
phases through :class:`PerformanceModel` — per point.  A paper-scale sweep
is a *grid* of such points (workload x config x size x threads), and every
machine- or config-derived quantity in the model (device bandwidth tables,
the MCDRAM-cache survival interpolator, TLB tiers, Little's-law
concurrency caps) is identical across huge swaths of that grid.

This module evaluates whole grids in a few numpy array ops:

* :class:`ModelTables` — a vectorized twin of :class:`PerformanceModel`
  bound to one (machine, memory system).  Footprint-, threading- and
  write-fraction-dependent quantities are resolved once per unique value
  through the scalar model's bit-identical columnar twins and memoized
  (``sequential_latency_ns``, ``sequential_bandwidth``,
  ``random_latency_ns``, ``random_capacity_lines``); the surrounding
  phase arithmetic is replicated expression-for-expression in numpy.
* :class:`BatchEvaluator` — a vectorized twin of
  :class:`ExperimentRunner`.  One simulated boot per configuration, one
  parsed numactl policy, one memoized placement per (config, footprint) —
  including both modelled failure paths (``check_runnable`` and
  out-of-node-memory), which surface per point exactly as the scalar
  runner reports them.

Bit-for-bit contract
--------------------
Batch results are required to match the scalar engine exactly — same IEEE
double for every time, bandwidth, latency and metric — because the golden
figures are byte-compared.  Two rules make that possible:

1. every transcendental or interpolated quantity goes through the scalar
   model itself (memoized per unique input), never a numpy reimplementation
   (``np.exp``/``np.log2`` are not bit-identical to :mod:`math`);
2. the remaining arithmetic (multiply, divide, min, max, fused sums over
   at most two placement locations) is replicated in the scalar code's
   exact association order; IEEE addition is commutative, so two-location
   mixes are order-safe.

The equivalence suite (``tests/engine/test_batch.py``) sweeps every
registry workload across the paper trio and the thread ladder and compares
records field by field.

Observability: per-point spans would cost more than the evaluation, so
batch mode accounts in aggregate — one ``batch.evaluate`` span, counter
*sums* (``runner.runs``, ``model.bytes_moved``, MCDRAM-cache and TLB
accounting) and histogram merges (``model.concurrency``) equal to what the
scalar path would have accumulated, with gauges left at the last row's
value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.engine.table_cache import TableCache

from repro.core.configs import ConfigName, SystemConfig, make_config
from repro.core.runner import RunRecord
from repro.engine.perfmodel import PerformanceModel, PhaseResult, RunResult
from repro.engine.placement import Location, PlacementMix
from repro.engine.profilephase import AccessPattern, MemoryProfile
from repro.machine.presets import knl7210
from repro.machine.topology import KNLMachine
from repro.memory.modes import MemorySystem
from repro.memory.numa import OutOfNodeMemory
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.process import OpenMPEnvironment
from repro.runtime.simos import SimulatedOS
from repro.util.units import CACHE_LINE, NS_PER_S
from repro.workloads.base import Workload

#: Version of the ModelTables numbers/serialization.  Part of the
#: persistent table cache's content address
#: (:mod:`repro.engine.table_cache`): bump on ANY change to the model
#: arithmetic, the memo-key packing or the snapshot schema, so stale
#: on-disk tables can never be loaded into a newer engine.
TABLES_VERSION = 1

#: Row-block column order (one row per (point, phase)).
_TEMPLATE_COLUMNS = (
    "traffic_bytes",
    "flops",
    "footprint_bytes",
    "access_bytes",
    "mlp_per_thread",
    "sequential",
    "compute_efficiency",
    "sync_fraction",
    "sync_quadratic",
    "write_fraction",
)


def _gather(
    memo: dict[int, float], keys: np.ndarray, compute: Callable[[int], float]
) -> np.ndarray:
    """Memoized elementwise lookup: one scalar ``compute`` per unique key."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    values = np.empty(len(uniq))
    for j, key in enumerate(uniq):
        key = int(key)
        value = memo.get(key)
        if value is None:
            value = compute(key)
            memo[key] = value
        values[j] = value
    return values[inverse]


def _gather_bulk(
    memo: dict[int, float],
    keys: np.ndarray,
    compute_many: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Memoized elementwise lookup: one *columnar* ``compute_many`` call
    covering every unique key not already in the memo.

    The columnar counterpart of :func:`_gather`: same memo dicts
    (plain-int keys, plain-float values, so entries survive a JSON round
    trip bit-identically), but the misses are computed in a single bulk
    call instead of a Python loop — this is what moves table
    *construction* off the warm path's critical section.  Every memo
    except the ``tlb_depth`` gauge is filled this way.
    """
    uniq, inverse = np.unique(keys, return_inverse=True)
    uniq_list = [int(k) for k in uniq.tolist()]
    missing = [k for k in uniq_list if k not in memo]
    if missing:
        computed = compute_many(np.asarray(missing, dtype=np.int64))
        for key, value in zip(missing, computed.tolist()):
            memo[key] = value
    values = np.array([memo[k] for k in uniq_list])
    return values[inverse]


def _capacity_hit_many(cache: Any, footprints: np.ndarray) -> np.ndarray:
    """Columnar capacity-bound hit rate min(1, C/F) (observe-path twin)."""
    r = footprints / cache.capacity_bytes
    out = np.ones(len(r))
    over = r > 1.0
    out[over] = 1.0 / r[over]
    return out


class ModelTables:
    """Vectorized twin of :class:`PerformanceModel` for one memory system.

    Owns a scalar model instance and answers *rows* — parallel arrays with
    one entry per (query point, phase) — in a handful of array ops.  All
    footprint-dependent quantities are resolved through the scalar model's
    columnar ``*_many`` twins (memoized per unique footprint / threading
    level / write fraction), so the numbers are the scalar engine's own.
    """

    def __init__(self, machine: KNLMachine, memory: MemorySystem) -> None:
        self.model = PerformanceModel(machine, memory)
        core = machine.reference_core
        self._mlp_sequential = core.mlp_sequential
        self._mlp_random = core.mlp_random
        # The superqueue cap, probed rather than duplicated: with infinite
        # per-thread MLP the clamp is all that remains.
        self._line_cap = core.outstanding_lines(float("inf"), 1)
        self._issue = np.array(
            [np.nan]
            + [core.smt_issue_efficiency(t) for t in range(1, core.smt_threads + 1)]
        )
        self._num_cores = machine.num_cores
        self._peak_gflops = machine.peak_dp_gflops
        # The packed (footprint << 3 | tpc) memo key in _sequential_cap
        # requires tpc to fit three bits; every registered machine has
        # smt_threads <= 4.
        if core.smt_threads >= 8:
            raise ValueError(
                f"ModelTables supports at most 7 SMT threads per core, "
                f"got {core.smt_threads}"
            )
        # Memo tables, keyed by the scalar model's own argument tuples.
        self._seq_lat: dict[Location, dict[int, float]] = {}
        self._seq_cap: dict[tuple[Location, float], dict[int, float]] = {}
        self._rand_lat: dict[Location, dict[int, float]] = {}
        self._rand_cap: dict[tuple[Location, float], dict[int, float]] = {}
        self._hit_rate: dict[str, dict[int, float]] = {}
        self._cap_hit: dict[int, float] = {}
        self._tlb_l1: dict[int, float] = {}
        self._tlb_l2: dict[int, float] = {}
        self._tlb_depth: dict[int, float] = {}

    # -- memoized scalar-model lookups --------------------------------------
    def _sequential_latency(self, loc: Location, fps: np.ndarray) -> np.ndarray:
        memo = self._seq_lat.setdefault(loc, {})
        return _gather_bulk(
            memo, fps, lambda f: self.model.sequential_latency_ns_many(loc, f)
        )

    def _sequential_cap_many(
        self, loc: Location, keys: np.ndarray, wf: float
    ) -> np.ndarray:
        """Bulk filler for packed (footprint << 3 | tpc) sequential-cap keys."""
        fps = keys >> 3
        tpcs = keys & 7
        values = np.empty(len(keys))
        for tpc in np.unique(tpcs):
            mask = tpcs == tpc
            values[mask] = self.model.sequential_bandwidth_many(
                loc, fps[mask], int(tpc), wf
            )
        return values

    def _sequential_cap(
        self, loc: Location, fps: np.ndarray, tpcs: np.ndarray, wfs: np.ndarray
    ) -> np.ndarray:
        out = np.empty(len(fps))
        # tpc <= smt_threads < 8 (checked in __init__), so
        # (footprint << 3 | tpc) is injective.
        keys = fps * 8 + tpcs
        for wf in np.unique(wfs):
            mask = wfs == wf
            wf = float(wf)
            memo = self._seq_cap.setdefault((loc, wf), {})
            out[mask] = _gather_bulk(
                memo,
                keys[mask],
                lambda k, wf=wf: self._sequential_cap_many(loc, k, wf),
            )
        return out

    def _random_latency(self, loc: Location, fps: np.ndarray) -> np.ndarray:
        memo = self._rand_lat.setdefault(loc, {})
        return _gather_bulk(
            memo, fps, lambda f: self.model.random_latency_ns_many(loc, f)
        )

    def _random_cap(
        self, loc: Location, fps: np.ndarray, wfs: np.ndarray
    ) -> np.ndarray:
        out = np.empty(len(fps))
        for wf in np.unique(wfs):
            mask = wfs == wf
            wf = float(wf)
            memo = self._rand_cap.setdefault((loc, wf), {})
            out[mask] = _gather_bulk(
                memo,
                fps[mask],
                lambda f, wf=wf: self.model.random_capacity_lines_many(loc, f, wf),
            )
        return out

    # -- the kernel ---------------------------------------------------------
    def evaluate_rows(self, rows: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Evaluate phase rows; returns per-row result arrays.

        ``rows`` holds, per (point, phase) row: the phase template columns
        (:data:`_TEMPLATE_COLUMNS`), the placement fractions
        (``frac_dram`` / ``frac_cached`` / ``frac_hbm``) and the thread
        shape (``threads_per_core``, ``active_cores``, ``num_threads``).
        Every expression mirrors the scalar model's association order.
        """
        traffic = rows["traffic_bytes"]
        flops = rows["flops"]
        fp = rows["footprint_bytes"]
        access = rows["access_bytes"]
        mlp = rows["mlp_per_thread"]
        sequential = rows["sequential"]
        tpc = rows["threads_per_core"]
        cores = rows["active_cores"]
        nrows = len(traffic)

        per_thread = np.where(
            np.isnan(mlp),
            np.where(sequential, self._mlp_sequential, self._mlp_random),
            mlp,
        )
        outstanding = np.minimum(per_thread * tpc, self._line_cap) * cores

        worst = np.zeros(nrows)
        latency = np.zeros(nrows)
        bandwidth = np.zeros(nrows)
        # Node-0 locations (DRAM / DRAM_CACHED, mutually exclusive) before
        # HBM: the allocator's split order, hence the scalar accumulation
        # order for the weighted latency.
        locations = (
            (Location.DRAM, rows["frac_dram"]),
            (Location.DRAM_CACHED, rows["frac_cached"]),
            (Location.HBM, rows["frac_hbm"]),
        )

        seq_mask = sequential & (traffic > 0)
        for loc, frac in locations:
            idx = np.nonzero(seq_mask & (frac > 0.0))[0]
            if not len(idx):
                continue
            f = frac[idx]
            lat = self._sequential_latency(loc, fp[idx])
            latency[idx] += f * lat
            demand = outstanding[idx] * f * CACHE_LINE / (lat / NS_PER_S)
            cap = self._sequential_cap(
                loc, fp[idx], tpc[idx], rows["write_fraction"][idx]
            )
            bw = np.minimum(demand, cap)
            time = traffic[idx] * f / bw * NS_PER_S
            worst[idx] = np.maximum(worst[idx], time)
        idx = np.nonzero(seq_mask & (worst > 0))[0]
        bandwidth[idx] = traffic[idx] / (worst[idx] / NS_PER_S)

        rand_mask = ~sequential & (traffic > 0)
        accesses = traffic / access
        for loc, frac in locations:
            idx = np.nonzero(rand_mask & (frac > 0.0))[0]
            if not len(idx):
                continue
            f = frac[idx]
            lat = self._random_latency(loc, fp[idx])
            latency[idx] += f * lat
            demand_lines = outstanding[idx] * f / (lat / NS_PER_S)
            cap_lines = self._random_cap(loc, fp[idx], rows["write_fraction"][idx])
            rate = np.minimum(demand_lines, cap_lines)
            time = accesses[idx] * f / rate * NS_PER_S
            worst[idx] = np.maximum(worst[idx], time)
        idx = np.nonzero(rand_mask & (worst > 0))[0]
        bandwidth[idx] = accesses[idx] * CACHE_LINE / (worst[idx] / NS_PER_S)

        compute = np.zeros(nrows)
        idx = np.nonzero(flops != 0.0)[0]
        if len(idx):
            scale = self._issue[tpc[idx]] * cores[idx] / self._num_cores
            gflops = self._peak_gflops * scale * rows["compute_efficiency"][idx]
            compute[idx] = flops[idx] / (gflops * 1e9) * NS_PER_S

        sync_f = rows["sync_fraction"]
        sync_q = rows["sync_quadratic"]
        sync = np.ones(nrows)
        idx = np.nonzero((sync_f != 0.0) | (sync_q != 0.0))[0]
        if len(idx):
            extra = np.maximum(
                0.0, rows["num_threads"][idx] / self._num_cores - 1.0
            )
            sync[idx] = 1.0 + sync_f[idx] * extra + sync_q[idx] * extra**2

        return {
            "time_ns": np.maximum(worst, compute) * sync,
            "memory_time_ns": worst,
            "compute_time_ns": compute,
            "sync_factor": sync,
            "achieved_bandwidth": bandwidth,
            "effective_latency_ns": latency,
            "outstanding": outstanding,
        }

    # -- aggregate observability -------------------------------------------
    def observe_rows(
        self, rows: dict[str, np.ndarray], out: dict[str, np.ndarray]
    ) -> None:
        """Aggregate-metrics twin of ``PerformanceModel._observe_phase``.

        Emits counter *sums* and histogram merges equal to the scalar
        per-phase accounting over the same rows; gauges end at the last
        row's value (the scalar path overwrites them per phase anyway).
        """
        if not obs_metrics.enabled():
            return
        sequential = rows["sequential"]
        traffic = rows["traffic_bytes"]
        fp = rows["footprint_bytes"]
        lines_all = traffic / rows["access_bytes"]
        for pattern in AccessPattern:
            mask = (
                sequential if pattern is AccessPattern.SEQUENTIAL else ~sequential
            )
            if mask.any():
                obs_metrics.observe_many(
                    "model.concurrency",
                    out["outstanding"][mask],
                    {"pattern": pattern.value},
                )
        for loc, frac in (
            (Location.DRAM, rows["frac_dram"]),
            (Location.DRAM_CACHED, rows["frac_cached"]),
            (Location.HBM, rows["frac_hbm"]),
        ):
            mask = frac > 0.0
            if not mask.any():
                continue
            moved = (
                np.where(sequential[mask], traffic[mask], lines_all[mask] * CACHE_LINE)
                * frac[mask]
            )
            if loc is Location.DRAM:
                obs_metrics.add(
                    "model.bytes_moved", float(moved.sum()), {"device": "dram"}
                )
            elif loc is Location.HBM:
                obs_metrics.add(
                    "model.bytes_moved", float(moved.sum()), {"device": "mcdram"}
                )
            else:
                self._observe_cached(fp[mask], sequential[mask], moved)
        rand = ~sequential
        if rand.any():
            lines = lines_all[rand]
            busy = lines > 0.0
            if busy.any():
                fpr = fp[rand][busy]
                tlb = self.model.tlb
                l1 = _gather_bulk(self._tlb_l1, fpr, tlb.l1_miss_rate_many)
                l2 = _gather_bulk(self._tlb_l2, fpr, tlb.l2_miss_rate_many)
                obs_metrics.add("tlb.l1_misses", float((l1 * lines[busy]).sum()))
                obs_metrics.add("tlb.walks", float((l2 * lines[busy]).sum()))
                obs_metrics.set_gauge(
                    "tlb.walk_depth",
                    _gather(self._tlb_depth, fpr[-1:], tlb.walk_depth)[0],
                )

    def _observe_cached(
        self, fps: np.ndarray, sequential: np.ndarray, moved: np.ndarray
    ) -> None:
        """Aggregate twin of ``MCDRAMCacheModel.record_accesses``."""
        cache = self.model.memory.cache_model
        assert cache is not None
        lines = moved / CACHE_LINE
        hits = np.empty(len(fps))
        for pattern in AccessPattern:
            pmask = (
                sequential if pattern is AccessPattern.SEQUENTIAL else ~sequential
            )
            if not pmask.any():
                continue
            memo = self._hit_rate.setdefault(pattern.value, {})
            h = _gather_bulk(
                memo, fps[pmask], lambda f: cache.hit_rate_many(f, pattern.value)
            )
            hits[pmask] = h
            busy = lines[pmask] > 0.0
            if not busy.any():
                continue
            line_count = lines[pmask][busy]
            hit_rate = h[busy]
            capacity_hit = _gather_bulk(
                self._cap_hit,
                fps[pmask][busy],
                lambda f: _capacity_hit_many(cache, f),
            )
            labels = {"pattern": pattern.value}
            obs_metrics.add("mcdram_cache.accesses", float(line_count.sum()), labels)
            obs_metrics.add(
                "mcdram_cache.hits", float((hit_rate * line_count).sum()), labels
            )
            obs_metrics.add(
                "mcdram_cache.misses",
                float(((1.0 - hit_rate) * line_count).sum()),
                labels,
            )
            obs_metrics.add(
                "mcdram_cache.conflict_misses",
                float((np.maximum(0.0, capacity_hit - hit_rate) * line_count).sum()),
                labels,
            )
            obs_metrics.set_gauge(
                "mcdram_cache.hit_rate", float(hit_rate[-1]), labels
            )
        # Every access probes MCDRAM; the miss fraction also reads DDR.
        obs_metrics.add("model.bytes_moved", float(moved.sum()), {"device": "mcdram"})
        obs_metrics.add(
            "model.bytes_moved",
            float((moved * (1.0 - hits)).sum()),
            {"device": "dram"},
        )

    # -- persistence ---------------------------------------------------------
    # The memo dicts hold plain ints/floats only, so a JSON round trip of
    # the snapshot reproduces every entry bit-identically (Python's float
    # repr/parse is exact).  Float write-fraction keys are serialized via
    # repr() for the same reason.  The schema is versioned by
    # :data:`TABLES_VERSION` through the table cache's content address.

    def entry_count(self) -> int:
        """Total memoized entries across every table (dirty tracking)."""
        count = 0
        for keyed in (self._seq_lat, self._rand_lat):
            for memo in keyed.values():
                count += len(memo)
        for keyed_wf in (self._seq_cap, self._rand_cap):
            for memo in keyed_wf.values():
                count += len(memo)
        for pattern_memo in self._hit_rate.values():
            count += len(pattern_memo)
        count += len(self._cap_hit)
        count += len(self._tlb_l1)
        count += len(self._tlb_l2)
        count += len(self._tlb_depth)
        return count

    def snapshot(self) -> dict[str, Any]:
        """JSON-serializable image of every populated memo table."""

        def plain(memo: dict[int, float]) -> dict[str, float]:
            return {str(key): value for key, value in memo.items()}

        def by_loc(
            keyed: dict[Location, dict[int, float]],
        ) -> dict[str, dict[str, float]]:
            return {loc.value: plain(memo) for loc, memo in keyed.items() if memo}

        def by_loc_wf(
            keyed: dict[tuple[Location, float], dict[int, float]],
        ) -> dict[str, dict[str, dict[str, float]]]:
            out: dict[str, dict[str, dict[str, float]]] = {}
            for (loc, wf), memo in keyed.items():
                if memo:
                    out.setdefault(loc.value, {})[repr(wf)] = plain(memo)
            return out

        return {
            "seq_lat": by_loc(self._seq_lat),
            "seq_cap": by_loc_wf(self._seq_cap),
            "rand_lat": by_loc(self._rand_lat),
            "rand_cap": by_loc_wf(self._rand_cap),
            "hit_rate": {
                pattern: plain(memo)
                for pattern, memo in self._hit_rate.items()
                if memo
            },
            "cap_hit": plain(self._cap_hit),
            "tlb_l1": plain(self._tlb_l1),
            "tlb_l2": plain(self._tlb_l2),
            "tlb_depth": plain(self._tlb_depth),
        }

    def prefill(self, payload: dict[str, Any]) -> None:
        """Merge a :meth:`snapshot` payload into the memo tables.

        Entries already memoized in-process win (they are bit-identical
        by construction anyway).  A structurally malformed payload raises
        (``KeyError``/``ValueError``/``TypeError``/``AttributeError``);
        the table cache treats that as a corrupt file and falls back to
        building from scratch.
        """

        def parse(entries: dict[str, Any]) -> dict[int, float]:
            return {int(key): float(value) for key, value in entries.items()}

        for loc_name, entries in payload.get("seq_lat", {}).items():
            memo = self._seq_lat.setdefault(Location(loc_name), {})
            memo.update({k: v for k, v in parse(entries).items() if k not in memo})
        for loc_name, by_wf in payload.get("seq_cap", {}).items():
            for wf_repr, entries in by_wf.items():
                memo = self._seq_cap.setdefault(
                    (Location(loc_name), float(wf_repr)), {}
                )
                memo.update(
                    {k: v for k, v in parse(entries).items() if k not in memo}
                )
        for loc_name, entries in payload.get("rand_lat", {}).items():
            memo = self._rand_lat.setdefault(Location(loc_name), {})
            memo.update({k: v for k, v in parse(entries).items() if k not in memo})
        for loc_name, by_wf in payload.get("rand_cap", {}).items():
            for wf_repr, entries in by_wf.items():
                memo = self._rand_cap.setdefault(
                    (Location(loc_name), float(wf_repr)), {}
                )
                memo.update(
                    {k: v for k, v in parse(entries).items() if k not in memo}
                )
        for pattern, entries in payload.get("hit_rate", {}).items():
            if not isinstance(pattern, str):
                raise TypeError(f"hit_rate pattern key must be str, got {pattern!r}")
            memo = self._hit_rate.setdefault(pattern, {})
            memo.update({k: v for k, v in parse(entries).items() if k not in memo})
        for name, memo in (
            ("cap_hit", self._cap_hit),
            ("tlb_l1", self._tlb_l1),
            ("tlb_l2", self._tlb_l2),
            ("tlb_depth", self._tlb_depth),
        ):
            memo.update(
                {
                    k: v
                    for k, v in parse(payload.get(name, {})).items()
                    if k not in memo
                }
            )

    # -- model.evaluate twin -------------------------------------------------
    def evaluate_batch(
        self,
        requests: Sequence[
            tuple[MemoryProfile, "PlacementMix | dict[str, PlacementMix]", int]
        ],
    ) -> list[RunResult]:
        """Evaluate many ``model.evaluate`` calls at once; returns
        RunResults.

        Validation order matches a scalar loop over the requests: the
        OpenMP environment is checked, then fine-grained dicts are checked
        for missing phases, per request in sequence.
        """
        machine = self.model.machine
        columns: dict[str, list[Any]] = {
            name: []
            for name in _TEMPLATE_COLUMNS
            + ("frac_dram", "frac_cached", "frac_hbm")
            + ("threads_per_core", "active_cores", "num_threads")
        }
        shapes: list[tuple[MemoryProfile, PlacementMix, int, int]] = []
        for profile, mix, num_threads in requests:
            env = OpenMPEnvironment(machine, num_threads)
            placement = env.placement
            if isinstance(mix, dict):
                missing = [p.name for p in profile.phases if p.name not in mix]
                if missing:
                    raise ValueError(
                        f"fine-grained placement missing phases: {missing}"
                    )
                mix_for = lambda phase: mix[phase.name]
                reported = next(iter(mix.values()))
            else:
                mix_for = lambda phase: mix
                reported = mix
            for phase in profile.phases:
                phase_mix = mix_for(phase)
                columns["traffic_bytes"].append(phase.traffic_bytes)
                columns["flops"].append(phase.flops)
                columns["footprint_bytes"].append(phase.footprint_bytes)
                columns["access_bytes"].append(phase.access_bytes)
                columns["mlp_per_thread"].append(
                    np.nan if phase.mlp_per_thread is None else phase.mlp_per_thread
                )
                columns["sequential"].append(
                    phase.pattern is AccessPattern.SEQUENTIAL
                )
                columns["compute_efficiency"].append(phase.compute_efficiency)
                columns["sync_fraction"].append(phase.sync_fraction)
                columns["sync_quadratic"].append(phase.sync_quadratic)
                columns["write_fraction"].append(phase.write_fraction)
                columns["frac_dram"].append(phase_mix.fraction(Location.DRAM))
                columns["frac_cached"].append(
                    phase_mix.fraction(Location.DRAM_CACHED)
                )
                columns["frac_hbm"].append(phase_mix.fraction(Location.HBM))
                columns["threads_per_core"].append(placement.max_threads_per_core)
                columns["active_cores"].append(placement.active_cores)
                columns["num_threads"].append(num_threads)
            shapes.append((profile, reported, num_threads, len(profile.phases)))
        rows = _as_arrays(columns)
        out = self.evaluate_rows(rows)
        if obs_metrics.enabled():
            self.observe_rows(rows, out)
            obs_metrics.add("model.runs", float(len(shapes)))
        results = []
        cursor = 0
        for profile, reported, num_threads, count in shapes:
            phase_results = tuple(
                _phase_result(profile.phases[k].name, out, cursor + k)
                for k in range(count)
            )
            cursor += count
            results.append(
                RunResult(
                    workload=profile.workload,
                    placement=reported,
                    num_threads=num_threads,
                    phase_results=phase_results,
                )
            )
        return results


def _as_arrays(columns: dict[str, list[Any]]) -> dict[str, np.ndarray]:
    """Materialize list columns with the dtypes the kernel expects."""
    dtypes = {
        "footprint_bytes": np.int64,
        "access_bytes": np.int64,
        "sequential": bool,
        "threads_per_core": np.int64,
        "active_cores": np.int64,
        "num_threads": np.int64,
    }
    return {
        name: np.array(values, dtype=dtypes.get(name, np.float64))
        for name, values in columns.items()
    }


def _phase_result(name: str, out: dict[str, np.ndarray], row: int) -> PhaseResult:
    """One scalar PhaseResult from a row of kernel output (plain floats)."""
    return PhaseResult(
        name=name,
        time_ns=float(out["time_ns"][row]),
        memory_time_ns=float(out["memory_time_ns"][row]),
        compute_time_ns=float(out["compute_time_ns"][row]),
        sync_factor=float(out["sync_factor"][row]),
        achieved_bandwidth=float(out["achieved_bandwidth"][row]),
        effective_latency_ns=float(out["effective_latency_ns"][row]),
    )


@dataclass
class _WorkloadEntry:
    """Per-unique-workload data hoisted out of the point loop."""

    workload: Workload
    slot: int
    profile: MemoryProfile
    footprint_bytes: int
    num_phases: int
    operations: float
    calibration: float
    default_metric: bool
    default_runnable: bool


class _ConfigState:
    """One booted configuration: OS, policy, model tables, placements."""

    def __init__(self, machine: KNLMachine, config: SystemConfig) -> None:
        self.config = config
        self.sim_os = SimulatedOS(config.mcdram, machine=machine)
        self.tables = ModelTables(machine, self.sim_os.memory)
        self._policy = self.sim_os.numactl(config.numactl).policy
        self._placements: dict[int, tuple[PlacementMix | None, str | None]] = {}

    def placement(
        self, name: str, footprint_bytes: int
    ) -> tuple[PlacementMix | None, str | None]:
        """Memoized allocation outcome for a footprint under this config.

        The allocator starts empty for every scalar run (the runner's
        allocation scope frees on exit), so the split — and the
        out-of-memory message, which carries no allocation name — depends
        only on (config, footprint).
        """
        cached = self._placements.get(footprint_bytes)
        if cached is not None:
            return cached
        sim_os = self.sim_os
        try:
            with sim_os.allocation_scope():
                allocation = sim_os.allocator.malloc(
                    f"{name}-data", footprint_bytes, policy=self._policy
                )
                mix = PlacementMix.from_allocation_split(
                    allocation.split,
                    dram_cached=sim_os.memory.dram_fronted_by_cache,
                )
            outcome: tuple[PlacementMix | None, str | None] = (mix, None)
        except OutOfNodeMemory as exc:
            outcome = (None, f"problem does not fit the bound NUMA node: {exc}")
        self._placements[footprint_bytes] = outcome
        return outcome

    # -- persistence ---------------------------------------------------------
    def entry_count(self) -> int:
        """Memoized entries (tables + placements) for dirty tracking."""
        return self.tables.entry_count() + len(self._placements)

    def snapshot(self) -> dict[str, Any]:
        """JSON-serializable image of the tables and placement memo."""
        placements: dict[str, Any] = {}
        for footprint, (mix, reason) in self._placements.items():
            placements[str(footprint)] = {
                "mix": (
                    None
                    if mix is None
                    else [[loc.value, frac] for loc, frac in mix.fractions]
                ),
                "reason": reason,
            }
        return {"tables": self.tables.snapshot(), "placements": placements}

    def prefill(self, payload: dict[str, Any]) -> None:
        """Merge a :meth:`snapshot` payload (in-process entries win)."""
        self.tables.prefill(payload.get("tables", {}))
        for footprint_str, entry in payload.get("placements", {}).items():
            footprint = int(footprint_str)
            if footprint in self._placements:
                continue
            mix_data = entry["mix"]
            mix = (
                None
                if mix_data is None
                else PlacementMix(
                    tuple(
                        (Location(loc_name), float(frac))
                        for loc_name, frac in mix_data
                    )
                )
            )
            reason = entry["reason"]
            if reason is not None and not isinstance(reason, str):
                raise TypeError(f"placement reason must be str, got {reason!r}")
            self._placements[footprint] = (mix, reason)


@dataclass
class _Block:
    """Rows and kernel output for one configuration's share of the grid."""

    rows: dict[str, np.ndarray]
    out: dict[str, np.ndarray]
    names: list[str]


@dataclass
class BatchResult:
    """Columnar outcome of one :meth:`BatchEvaluator.evaluate` call.

    ``time_ns`` / ``metric`` are NaN and ``feasible`` False where the
    scalar runner would have produced an infeasible record (the reason
    string is in ``infeasible_reasons``).  Full :class:`RunRecord` objects
    — bit-identical to the scalar runner's — are materialized lazily.
    """

    cells: list[tuple[Workload, SystemConfig, int]]
    time_ns: np.ndarray
    metric: np.ndarray
    feasible: np.ndarray
    infeasible_reasons: list[str | None]
    _mixes: list[PlacementMix | None] = field(repr=False, default_factory=list)
    _rows_of: list[tuple[_Block, int, int] | None] = field(
        repr=False, default_factory=list
    )
    _profiles: list[MemoryProfile | None] = field(repr=False, default_factory=list)

    def __len__(self) -> int:
        return len(self.cells)

    def run_result(self, i: int) -> RunResult | None:
        """The simulated RunResult for point ``i`` (None if infeasible)."""
        located = self._rows_of[i]
        if located is None:
            return None
        block, start, count = located
        profile = self._profiles[i]
        assert profile is not None
        mix = self._mixes[i]
        assert mix is not None
        _, _, num_threads = self.cells[i]
        return RunResult(
            workload=profile.workload,
            placement=mix,
            num_threads=num_threads,
            phase_results=tuple(
                _phase_result(block.names[start + k], block.out, start + k)
                for k in range(count)
            ),
        )

    def record(self, i: int) -> RunRecord:
        """The RunRecord the scalar runner would have returned for point i."""
        workload, config, num_threads = self.cells[i]
        spec = workload.spec
        if not self.feasible[i]:
            return RunRecord(
                workload=spec.name,
                workload_params=workload.params(),
                config=config.name,
                num_threads=num_threads,
                metric=None,
                metric_name=spec.metric_name,
                metric_unit=spec.metric_unit,
                infeasible_reason=self.infeasible_reasons[i],
            )
        return RunRecord(
            workload=spec.name,
            workload_params=workload.params(),
            config=config.name,
            num_threads=num_threads,
            metric=float(self.metric[i]),
            metric_name=spec.metric_name,
            metric_unit=spec.metric_unit,
            run_result=self.run_result(i),
        )

    def records(self) -> list[RunRecord]:
        return [self.record(i) for i in range(len(self.cells))]


class BatchEvaluator:
    """Vectorized twin of :class:`ExperimentRunner` over query grids.

    Configuration state (simulated boot, numactl policy, model tables) is
    built once per named configuration and kept across :meth:`evaluate`
    calls; placements are memoized per (config, footprint).
    """

    def __init__(
        self,
        machine: KNLMachine | None = None,
        *,
        table_cache: "TableCache | None" = None,
    ) -> None:
        self.machine = machine if machine is not None else knl7210()
        self.table_cache = table_cache
        self._states: dict[SystemConfig, _ConfigState] = {}
        self._thread_shapes: dict[int, tuple[int, int]] = {}
        # Per-state persistence bookkeeping: the content-address key and
        # the entry count at the last load/store (id(state)-keyed).
        self._table_keys: dict[int, str] = {}
        self._persisted_counts: dict[int, int] = {}

    def state(self, config: "SystemConfig | ConfigName") -> _ConfigState:
        if isinstance(config, ConfigName):
            config = make_config(config)
        state = self._states.get(config)
        if state is None:
            with obs_trace.span(
                "tables.build",
                tags=(
                    {"config": config.name.value} if obs_trace.enabled() else None
                ),
            ):
                state = _ConfigState(self.machine, config)
            self._states[config] = state
            if self.table_cache is not None:
                from repro.engine.table_cache import table_key

                key = table_key(self.machine, state.config)
                self._table_keys[id(state)] = key
                payload = self.table_cache.load(key)
                if payload is not None:
                    try:
                        state.prefill(payload)
                    except (KeyError, ValueError, TypeError, AttributeError):
                        # Structurally corrupt payload: drop whatever
                        # partial entries merged (rebuilding from the
                        # scalar model would produce identical bits, but
                        # a malformed file must never half-poison state).
                        self._states[config] = state = _ConfigState(
                            self.machine, config
                        )
                        self._table_keys[id(state)] = key
                        self.table_cache.mark_corrupt(key)
                self._persisted_counts[id(state)] = state.entry_count()
        return state

    def _flush_tables(self) -> None:
        """Persist any state whose memo tables grew since the last flush."""
        if self.table_cache is None:
            return
        for state in self._states.values():
            count = state.entry_count()
            if count != self._persisted_counts.get(id(state)):
                self.table_cache.store(self._table_keys[id(state)], state.snapshot())
                self._persisted_counts[id(state)] = count

    def _thread_shape(self, num_threads: int) -> tuple[int, int]:
        shape = self._thread_shapes.get(num_threads)
        if shape is None:
            placement = self.machine.place_threads(num_threads)
            shape = (placement.max_threads_per_core, placement.active_cores)
            self._thread_shapes[num_threads] = shape
        return shape

    def evaluate(
        self,
        cells: Sequence[tuple[Workload, "SystemConfig | ConfigName", int]],
    ) -> BatchResult:
        """Evaluate a grid of (workload, config, num_threads) points.

        Failure semantics mirror a scalar loop in submission order:
        ``check_runnable`` and allocation failures become per-point
        infeasible entries; an invalid thread count raises the scalar
        engine's ValueError.
        """
        if obs_trace.enabled() or obs_metrics.enabled():
            with obs_trace.span("batch.evaluate", tags={"points": len(cells)}):
                result = self._evaluate(cells, observe=True)
        else:
            result = self._evaluate(cells, observe=False)
        self._flush_tables()
        return result

    def _evaluate(
        self,
        cells: Sequence[tuple[Workload, "SystemConfig | ConfigName", int]],
        observe: bool,
    ) -> BatchResult:
        n = len(cells)
        reasons: list[str | None] = [None] * n
        mixes: list[PlacementMix | None] = [None] * n
        profiles: list[MemoryProfile | None] = [None] * n
        resolved: list[tuple[Workload, SystemConfig, int]] = []
        entries: dict[int, _WorkloadEntry] = {}
        entry_list: list[_WorkloadEntry] = []
        groups: dict[int, tuple[_ConfigState, list[Any]]] = {}
        operations = np.zeros(n)
        calibration = np.zeros(n)
        fallback_metric: list[int] = []

        for i, (workload, config, num_threads) in enumerate(cells):
            state = self.state(config)
            resolved.append((workload, state.config, num_threads))
            entry = entries.get(id(workload))
            if entry is None:
                entry = _make_entry(workload, len(entry_list))
                entries[id(workload)] = entry
                entry_list.append(entry)
            if not entry.default_runnable:
                try:
                    workload.check_runnable(num_threads)
                except RuntimeError as exc:
                    reasons[i] = str(exc)
                    continue
            mix, reason = state.placement(entry.profile.workload, entry.footprint_bytes)
            if mix is None:
                reasons[i] = reason
                continue
            tpc, active_cores = self._thread_shape(num_threads)
            mixes[i] = mix
            profiles[i] = entry.profile
            operations[i] = entry.operations
            calibration[i] = entry.calibration
            if not entry.default_metric:
                fallback_metric.append(i)
            group = groups.get(id(state))
            if group is None:
                group = (state, [])
                groups[id(state)] = group
            group[1].append(
                (
                    i,
                    entry.slot,
                    mix.fraction(Location.DRAM),
                    mix.fraction(Location.DRAM_CACHED),
                    mix.fraction(Location.HBM),
                    tpc,
                    active_cores,
                    num_threads,
                )
            )

        # Concatenated phase templates over the workloads actually seen.
        template, names, offsets, counts = _stack_templates(entry_list)

        time_ns = np.full(n, np.nan)
        feasible = np.zeros(n, dtype=bool)
        rows_of: list[tuple[_Block, int, int] | None] = [None] * n
        run_counts: dict[ConfigName, int] = {}
        for state, members in groups.values():
            block, point_idx, starts, row_counts = _expand_group(
                state, members, template, names, offsets, counts
            )
            block.out = state.tables.evaluate_rows(block.rows)
            if observe:
                state.tables.observe_rows(block.rows, block.out)
            point_of_row = np.repeat(point_idx, row_counts)
            time_ns[point_idx] = np.bincount(
                np.repeat(np.arange(len(point_idx)), row_counts),
                weights=block.out["time_ns"],
                minlength=len(point_idx),
            )
            feasible[point_idx] = True
            for j, i in enumerate(point_idx):
                rows_of[i] = (block, int(starts[j]), int(row_counts[j]))
            run_counts[state.config.name] = run_counts.get(
                state.config.name, 0
            ) + len(point_idx)
            del point_of_row

        metric = np.full(n, np.nan)
        if feasible.any():
            if (time_ns[feasible] == 0.0).any():
                raise ZeroDivisionError("run took zero time")
            idx = np.nonzero(feasible)[0]
            metric[idx] = (
                operations[idx] / (time_ns[idx] / NS_PER_S) * calibration[idx]
            )

        result = BatchResult(
            cells=resolved,
            time_ns=time_ns,
            metric=metric,
            feasible=feasible,
            infeasible_reasons=reasons,
            _mixes=mixes,
            _rows_of=rows_of,
            _profiles=profiles,
        )
        for i in fallback_metric:
            workload = resolved[i][0]
            run = result.run_result(i)
            if run is not None:
                metric[i] = workload.metric(run)

        if observe and obs_metrics.enabled():
            obs_metrics.add("model.runs", float(int(feasible.sum())))
            infeasible_counts: dict[ConfigName, int] = {}
            for i, reason in enumerate(reasons):
                if reason is not None:
                    name = resolved[i][1].name
                    infeasible_counts[name] = infeasible_counts.get(name, 0) + 1
            totals: dict[ConfigName, int] = dict(run_counts)
            for name, count in infeasible_counts.items():
                totals[name] = totals.get(name, 0) + count
            for name, count in totals.items():
                obs_metrics.add("runner.runs", float(count), {"config": name.value})
            for name, count in infeasible_counts.items():
                obs_metrics.add(
                    "runner.infeasible", float(count), {"config": name.value}
                )
        return result


def _make_entry(workload: Workload, slot: int) -> _WorkloadEntry:
    cls = type(workload)
    profile = workload.profile()
    return _WorkloadEntry(
        workload=workload,
        slot=slot,
        profile=profile,
        footprint_bytes=workload.footprint_bytes,
        num_phases=len(profile.phases),
        operations=workload.operations,
        calibration=workload.calibration,
        default_metric=cls.metric is Workload.metric,
        default_runnable=cls.check_runnable is Workload.check_runnable,
    )


def _stack_templates(
    entry_list: list[_WorkloadEntry],
) -> tuple[dict[str, np.ndarray], list[str], np.ndarray, np.ndarray]:
    """Concatenate per-workload phase templates into flat column arrays."""
    columns: dict[str, list[Any]] = {name: [] for name in _TEMPLATE_COLUMNS}
    names: list[str] = []
    offsets = np.zeros(len(entry_list), dtype=np.int64)
    counts = np.zeros(len(entry_list), dtype=np.int64)
    cursor = 0
    for entry in entry_list:
        offsets[entry.slot] = cursor
        counts[entry.slot] = len(entry.profile.phases)
        cursor += len(entry.profile.phases)
        for phase in entry.profile.phases:
            names.append(phase.name)
            columns["traffic_bytes"].append(phase.traffic_bytes)
            columns["flops"].append(phase.flops)
            columns["footprint_bytes"].append(phase.footprint_bytes)
            columns["access_bytes"].append(phase.access_bytes)
            columns["mlp_per_thread"].append(
                np.nan if phase.mlp_per_thread is None else phase.mlp_per_thread
            )
            columns["sequential"].append(phase.pattern is AccessPattern.SEQUENTIAL)
            columns["compute_efficiency"].append(phase.compute_efficiency)
            columns["sync_fraction"].append(phase.sync_fraction)
            columns["sync_quadratic"].append(phase.sync_quadratic)
            columns["write_fraction"].append(phase.write_fraction)
    return _as_arrays(columns), names, offsets, counts


def _expand_group(
    state: _ConfigState,
    members: list[tuple[Any, ...]],
    template: dict[str, np.ndarray],
    names: list[str],
    offsets: np.ndarray,
    counts: np.ndarray,
) -> tuple[_Block, np.ndarray, np.ndarray, np.ndarray]:
    """Expand one configuration's points into phase rows (vectorized)."""
    member_cols = np.array(members, dtype=np.float64)
    point_idx = member_cols[:, 0].astype(np.int64)
    slots = member_cols[:, 1].astype(np.int64)
    row_counts = counts[slots]
    total = int(row_counts.sum())
    point_of_row = np.repeat(np.arange(len(members)), row_counts)
    row_start = np.cumsum(row_counts) - row_counts
    template_row = np.repeat(offsets[slots], row_counts) + (
        np.arange(total) - np.repeat(row_start, row_counts)
    )
    rows = {name: column[template_row] for name, column in template.items()}
    rows["frac_dram"] = member_cols[:, 2][point_of_row]
    rows["frac_cached"] = member_cols[:, 3][point_of_row]
    rows["frac_hbm"] = member_cols[:, 4][point_of_row]
    rows["threads_per_core"] = member_cols[:, 5].astype(np.int64)[point_of_row]
    rows["active_cores"] = member_cols[:, 6].astype(np.int64)[point_of_row]
    rows["num_threads"] = member_cols[:, 7].astype(np.int64)[point_of_row]
    block = _Block(rows=rows, out={}, names=[names[t] for t in template_row])
    return block, point_idx, row_start, row_counts
