"""MCDRAM memory-side cache model (cache and hybrid modes).

On KNL, cache mode turns MCDRAM into a *direct-mapped*, 64 B-line,
memory-side last-level cache in front of DDR4.  The paper attributes the
cache-mode behaviour of Figs. 2 and 4 to this organization:

* near-MCDRAM bandwidth while the working set stays well inside 16 GB,
* a steep bandwidth drop as the footprint approaches capacity (physical
  pages scatter across the direct-mapped sets, so conflict misses appear
  *before* 16 GB — 260 GB/s at 8 GB vs 125 GB/s at 11.4 GB),
* below-DRAM bandwidth once the footprint exceeds ~1.5x capacity (every
  access pays the tag probe and the DRAM fill), and
* for random access, a latency *penalty* relative to plain DRAM (tag probe
  in MCDRAM + DDR access on each miss), which is why Graph500 on a large
  graph runs 1.3x faster on DRAM than in cache mode.

Model structure
---------------
``streaming_hit_rate`` uses a monotone survival curve h(r) of the footprint
ratio r = footprint / capacity, anchored at the paper's measured STREAM
points (Section IV-A) for the direct-mapped organization, with the
mechanistic modulo-mapping tail ``(2C - F)/F`` bounding large-r behaviour.
``random_hit_rate`` uses the classic closed form for a direct-mapped cache
under uniform random access, h(r) = (1/r)(1 - e^-r).

``associativity`` is an ablation knob: with >= 8 ways and LRU-like
replacement the premature conflict drop disappears (h = 1 while the set
fits), isolating how much of the paper's cache-mode degradation is due to
direct mapping rather than capacity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.memory.device import MemoryDevice
from repro.obs import metrics as obs_metrics
from repro.util.pchip import Pchip
from repro.util.validation import check_non_negative, check_positive

# Survival anchors (footprint ratio -> resident fraction) for streaming
# reuse under direct mapping with OS page scatter.  Calibrated so the
# bandwidth composition reproduces the paper's STREAM measurements:
# 260 GB/s @ 8 GB, 125 GB/s @ 11.4 GB, below-DRAM beyond ~24 GB (Fig. 2).
#
# Ratios are byte ratios against the 16 GiB capacity; the paper's decimal
# "8 / 11.4 / 22.8 GB" STREAM points land at r = 0.466 / 0.664 / 1.327.
_STREAM_SURVIVAL_ANCHORS: tuple[tuple[float, float], ...] = (
    (0.0, 1.0),
    (0.28, 0.998),
    (0.466, 0.995),
    (0.58, 0.95),
    (0.664, 0.675),
    (0.80, 0.55),
    (0.93, 0.46),
    (1.12, 0.38),
    (1.327, 0.28),
    (1.49, 0.22),
    (1.86, 0.10),
    (2.8, 0.03),
    (5.6, 0.0),
)


@functools.lru_cache(maxsize=None)
def _survival_interpolator(
    anchors: tuple[tuple[float, float], ...] = _STREAM_SURVIVAL_ANCHORS,
) -> tuple[Pchip, float]:
    """The survival spline, built once per anchor set per process.

    Rebuilding the interpolator per :class:`MCDRAMCacheModel` was the
    single largest setup cost on the scalar run path, so it is memoized.
    The memo keys on the anchor tuple — not a single process-wide slot —
    so machines that calibrate their own survival curve never share (or
    clobber) another machine's interpolator.
    """
    xs = [a[0] for a in anchors]
    return Pchip(xs, [a[1] for a in anchors]), float(xs[-1])


@dataclass(frozen=True)
class CacheModeTraffic:
    """Byte accounting for one byte of application traffic in cache mode."""

    hit_rate: float
    mcdram_bytes: float
    dram_bytes: float


class MCDRAMCacheModel:
    """Analytic model of MCDRAM configured as a memory-side cache.

    Parameters
    ----------
    mcdram, dram:
        The backing devices.
    capacity_bytes:
        Cache capacity; defaults to the full MCDRAM.  Hybrid mode passes
        the cache partition here.
    associativity:
        1 (the real hardware) or more (ablation).
    protocol_efficiency:
        Fraction of flat-mode MCDRAM bandwidth available through the cache
        protocol; 0.80 reproduces the ~260 GB/s all-hit STREAM ceiling
        against the 330 GB/s flat-mode measurement.
    tag_probe_fraction:
        Cost of the in-MCDRAM tag probe paid by misses, as a fraction of
        the MCDRAM idle latency.
    survival_anchors:
        The (footprint ratio, resident fraction) anchor points of the
        streaming survival curve.  Defaults to the KNL calibration above;
        a machine with a differently-organized memory-side cache may pass
        its own.
    """

    def __init__(
        self,
        mcdram: MemoryDevice,
        dram: MemoryDevice,
        *,
        capacity_bytes: int | None = None,
        associativity: int = 1,
        protocol_efficiency: float = 0.80,
        tag_probe_fraction: float = 0.5,
        survival_anchors: tuple[tuple[float, float], ...] = _STREAM_SURVIVAL_ANCHORS,
    ) -> None:
        self.mcdram = mcdram
        self.dram = dram
        self.capacity_bytes = (
            mcdram.capacity_bytes if capacity_bytes is None else capacity_bytes
        )
        check_positive("capacity_bytes", self.capacity_bytes)
        if self.capacity_bytes > mcdram.capacity_bytes:
            raise ValueError(
                f"cache capacity {self.capacity_bytes} exceeds MCDRAM capacity "
                f"{mcdram.capacity_bytes}"
            )
        check_positive("associativity", associativity)
        self.associativity = int(associativity)
        if not 0.0 < protocol_efficiency <= 1.0:
            raise ValueError(
                f"protocol_efficiency must be in (0, 1], got {protocol_efficiency}"
            )
        self.protocol_efficiency = protocol_efficiency
        if not 0.0 <= tag_probe_fraction <= 1.0:
            raise ValueError(
                f"tag_probe_fraction must be in [0, 1], got {tag_probe_fraction}"
            )
        self.tag_probe_fraction = tag_probe_fraction
        self._survival, self._survival_max_r = _survival_interpolator(
            tuple(tuple(a) for a in survival_anchors)
        )
        # footprint_bytes -> hit rate, per pattern.  The model parameters
        # are fixed at construction and sweeps re-ask the same footprints
        # for every thread count, so the scalar path memoizes the spline
        # and exp() evaluations (bit-identical: the stored float is the
        # value the first call computed).
        self._streaming_hit_memo: dict[int, float] = {}
        self._random_hit_memo: dict[int, float] = {}

    # -- geometry -------------------------------------------------------------
    def footprint_ratio(self, footprint_bytes: int) -> float:
        """r = footprint / cache capacity."""
        check_non_negative("footprint_bytes", footprint_bytes)
        return footprint_bytes / self.capacity_bytes

    # -- hit rates --------------------------------------------------------------
    def streaming_hit_rate(self, footprint_bytes: int) -> float:
        """Steady-state hit rate for a repeatedly streamed working set."""
        memo = self._streaming_hit_memo.get(footprint_bytes)
        if memo is not None:
            return memo
        h = self._streaming_hit_rate(footprint_bytes)
        self._streaming_hit_memo[footprint_bytes] = h
        return h

    def _streaming_hit_rate(self, footprint_bytes: int) -> float:
        r = self.footprint_ratio(footprint_bytes)
        if self.associativity >= 8:
            # LRU-like associative organization: no conflict misses while
            # the set fits; beyond capacity approximate random replacement
            # residency C/F (cyclic-LRU thrashing does not occur with the
            # hardware's pseudo-random indexing).
            return 1.0 if r <= 1.0 else min(1.0, 0.95 / r)
        if r >= self._survival_max_r:
            return 0.0
        h = self._survival(r)
        # The modulo-mapping bound for contiguous placement: beyond capacity
        # at most (2C - F)/F of a cyclic stream can survive, and residency
        # can never exceed C/F.
        if r > 0:
            h = min(h, 1.0 / r) if r > 1.0 else h
        return max(0.0, min(1.0, h))

    def random_hit_rate(self, footprint_bytes: int) -> float:
        """Steady-state hit rate under uniform random access.

        Direct-mapped closed form h(r) = (1/r)(1 - e^-r); associative
        organizations approach min(1, 1/r).
        """
        memo = self._random_hit_memo.get(footprint_bytes)
        if memo is not None:
            return memo
        h = self._random_hit_rate(footprint_bytes)
        self._random_hit_memo[footprint_bytes] = h
        return h

    def _random_hit_rate(self, footprint_bytes: int) -> float:
        r = self.footprint_ratio(footprint_bytes)
        if r == 0.0:
            return 1.0
        if self.associativity >= 8:
            return min(1.0, 1.0 / r)
        return min(1.0, (1.0 / r) * (1.0 - math.exp(-r)))

    def hit_rate(self, footprint_bytes: int, pattern: str) -> float:
        """Dispatch on access pattern ('sequential' or 'random')."""
        if pattern == "sequential":
            return self.streaming_hit_rate(footprint_bytes)
        if pattern == "random":
            return self.random_hit_rate(footprint_bytes)
        raise ValueError(f"pattern must be 'sequential' or 'random', got {pattern!r}")

    # -- columnar twins ---------------------------------------------------------
    # Each *_many method answers a whole footprint column at once and is
    # bit-identical per element to its scalar twin above: the arithmetic
    # replicates the scalar expression order with exact IEEE ops
    # (multiply, divide, min, max), the survival spline is evaluated
    # through :meth:`Pchip.many` (per-point identical to scalar calls),
    # and transcendentals stay on :mod:`math` per element — ``np.exp``
    # is not bit-identical to ``math.exp``.
    # ``tests/memory/test_mcdram_cache.py`` pins exact elementwise
    # equality over a dense footprint grid.

    def streaming_hit_rate_many(self, footprints: np.ndarray) -> np.ndarray:
        """Columnar twin of :meth:`streaming_hit_rate`."""
        r = footprints / self.capacity_bytes
        if self.associativity >= 8:
            out = np.ones(len(r))
            over = r > 1.0
            out[over] = np.minimum(1.0, 0.95 / r[over])
            return out
        out = np.zeros(len(r))
        live = r < self._survival_max_r
        if live.any():
            rl = r[live]
            h = self._survival.many(rl)
            over = rl > 1.0
            h[over] = np.minimum(h[over], 1.0 / rl[over])
            out[live] = np.maximum(0.0, np.minimum(1.0, h))
        return out

    def random_hit_rate_many(self, footprints: np.ndarray) -> np.ndarray:
        """Columnar twin of :meth:`random_hit_rate`."""
        r = footprints / self.capacity_bytes
        out = np.ones(len(r))
        busy = r != 0.0
        if not busy.any():
            return out
        rb = r[busy]
        if self.associativity >= 8:
            out[busy] = np.minimum(1.0, 1.0 / rb)
            return out
        decay = np.array([math.exp(-x) for x in rb.tolist()])
        out[busy] = np.minimum(1.0, (1.0 / rb) * (1.0 - decay))
        return out

    def hit_rate_many(self, footprints: np.ndarray, pattern: str) -> np.ndarray:
        """Columnar twin of :meth:`hit_rate`."""
        if pattern == "sequential":
            return self.streaming_hit_rate_many(footprints)
        if pattern == "random":
            return self.random_hit_rate_many(footprints)
        raise ValueError(f"pattern must be 'sequential' or 'random', got {pattern!r}")

    def streaming_bandwidth_many(
        self,
        footprints: np.ndarray,
        threads_per_core: int = 1,
        write_fraction: float = 0.0,
    ) -> np.ndarray:
        """Columnar twin of :meth:`streaming_bandwidth`."""
        h = self.streaming_hit_rate_many(footprints)
        mc_bw = (
            self.mcdram.stream_bandwidth(threads_per_core, write_fraction)
            * self.protocol_efficiency
        )
        dr_bw = self.dram.stream_bandwidth(threads_per_core, write_fraction)
        # streaming_traffic: MCDRAM sees every byte, DRAM the miss share.
        time_per_byte = 1.0 / mc_bw + (1.0 - h) / dr_bw
        return 1.0 / time_per_byte

    def random_bandwidth_cap_many(
        self, footprints: np.ndarray, write_fraction: float = 0.0
    ) -> np.ndarray:
        """Columnar twin of :meth:`random_bandwidth_cap`."""
        h = self.random_hit_rate_many(footprints)
        mc = (
            self.mcdram.random_bandwidth(write_fraction=write_fraction)
            * self.protocol_efficiency
        )
        dr = self.dram.random_bandwidth(write_fraction=write_fraction)
        miss = 1.0 - h
        out = np.full(len(h), mc)
        limited = miss > 0.0
        out[limited] = np.minimum(mc, dr / miss[limited])
        return out

    def random_latency_ns_many(self, footprints: np.ndarray) -> np.ndarray:
        """Columnar twin of :meth:`random_latency_ns`."""
        h = self.random_hit_rate_many(footprints)
        hit_ns = self.mcdram.idle_latency_ns
        miss_ns = (
            self.tag_probe_fraction * self.mcdram.idle_latency_ns
            + self.dram.idle_latency_ns
        )
        return h * hit_ns + (1.0 - h) * miss_ns

    # -- observability -----------------------------------------------------------
    def record_accesses(
        self, footprint_bytes: int, pattern: str, lines: float
    ) -> float:
        """Account ``lines`` cache-line accesses in the metrics registry.

        Called by the performance engine per phase-placement when an
        observation session is active (:mod:`repro.obs`).  Emits
        ``mcdram_cache.hits`` / ``misses`` / ``conflict_misses`` counters
        labelled by pattern.  Conflict misses are the misses a
        fully-associative cache of the same capacity would not have taken
        — the share the paper attributes to direct-mapped page scatter
        (its premature pre-16 GB bandwidth drop) — i.e.
        ``(h_capacity - h) x lines`` with ``h_capacity = min(1, C/F)``.

        Returns the hit rate used, so callers can split device traffic
        without recomputing it.
        """
        h = self.hit_rate(footprint_bytes, pattern)
        if lines <= 0.0 or not obs_metrics.enabled():
            return h
        r = self.footprint_ratio(footprint_bytes)
        capacity_hit_rate = 1.0 if r <= 1.0 else 1.0 / r
        labels = {"pattern": pattern}
        obs_metrics.add("mcdram_cache.accesses", lines, labels)
        obs_metrics.add("mcdram_cache.hits", h * lines, labels)
        obs_metrics.add("mcdram_cache.misses", (1.0 - h) * lines, labels)
        obs_metrics.add(
            "mcdram_cache.conflict_misses",
            max(0.0, capacity_hit_rate - h) * lines,
            labels,
        )
        obs_metrics.set_gauge("mcdram_cache.hit_rate", h, labels)
        return h

    # -- bandwidth --------------------------------------------------------------
    def streaming_traffic(self, footprint_bytes: int) -> CacheModeTraffic:
        """Per-byte traffic on each device for a streaming access."""
        h = self.streaming_hit_rate(footprint_bytes)
        # Hits read MCDRAM; misses read DRAM and write the fill into
        # MCDRAM, so MCDRAM sees one byte either way.
        return CacheModeTraffic(hit_rate=h, mcdram_bytes=1.0, dram_bytes=1.0 - h)

    def streaming_bandwidth(
        self,
        footprint_bytes: int,
        threads_per_core: int = 1,
        write_fraction: float = 0.0,
    ) -> float:
        """Application-visible sequential bandwidth (bytes/s) in cache mode.

        Composition: the MCDRAM side serves every byte through the cache
        protocol (``protocol_efficiency`` of flat-mode bandwidth); misses
        additionally serialize a DRAM transfer.  The additive form captures
        the observed below-DRAM regime for far-over-capacity footprints.
        ``write_fraction`` reaches both devices' sequential write-asymmetry
        penalties (a no-op for the KNL devices).
        """
        traffic = self.streaming_traffic(footprint_bytes)
        mc_bw = (
            self.mcdram.stream_bandwidth(threads_per_core, write_fraction)
            * self.protocol_efficiency
        )
        dr_bw = self.dram.stream_bandwidth(threads_per_core, write_fraction)
        time_per_byte = traffic.mcdram_bytes / mc_bw + traffic.dram_bytes / dr_bw
        return 1.0 / time_per_byte

    def random_bandwidth_cap(
        self, footprint_bytes: int, write_fraction: float = 0.0
    ) -> float:
        """Sustained random-access bandwidth through the cache (bytes/s).

        Every probe consumes MCDRAM tag/data capacity; the miss fraction
        additionally consumes DDR capacity.  The two operate concurrently,
        so whichever saturates first caps the stream.
        """
        h = self.random_hit_rate(footprint_bytes)
        mc = (
            self.mcdram.random_bandwidth(write_fraction=write_fraction)
            * self.protocol_efficiency
        )
        dr = self.dram.random_bandwidth(write_fraction=write_fraction)
        miss = 1.0 - h
        if miss <= 0.0:
            return mc
        return min(mc, dr / miss)

    # -- latency ----------------------------------------------------------------
    def random_latency_ns(self, footprint_bytes: int) -> float:
        """Average random-read latency through the cache (ns).

        A hit costs the MCDRAM latency; a miss pays the MCDRAM tag probe
        plus the DRAM access.  With a large footprint this tends to
        ``tag + DRAM`` — *worse* than plain DRAM, matching the paper's
        Fig. 4 bottom panels.
        """
        h = self.random_hit_rate(footprint_bytes)
        hit_ns = self.mcdram.idle_latency_ns
        miss_ns = (
            self.tag_probe_fraction * self.mcdram.idle_latency_ns
            + self.dram.idle_latency_ns
        )
        return h * hit_ns + (1.0 - h) * miss_ns
