"""Synthetic address-trace generators and trace-driven cache validation.

The analytic models in :mod:`repro.memory.mcdram_cache` use closed forms
(the random-access hit rate ``(1/r)(1-e^-r)``, the modulo streaming
tail).  This module generates the address streams those formulas describe
and drives the *functional* cache simulator
(:class:`tests.oracles.cachesim.SetAssociativeCache`) with them, so tests
can confirm the formulas at reduced scale instead of trusting them.

Patterns:

* :func:`sequential_trace` — repeated linear sweeps (STREAM-like reuse),
* :func:`random_trace` — uniform random lines (GUPS-like),
* :func:`strided_trace` — fixed-stride walks,
* :func:`zipfian_trace` — skewed popularity (graph-like), an extension
  beyond the paper's uniform assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.caches import CacheGeometry
from repro.util.prng import make_rng
from repro.util.units import CACHE_LINE
from repro.util.validation import check_positive
from tests.oracles.cachesim import SetAssociativeCache


def sequential_trace(
    footprint_bytes: int, passes: int = 2, line_bytes: int = CACHE_LINE
) -> np.ndarray:
    """Line-aligned addresses of ``passes`` sweeps over the footprint."""
    check_positive("footprint_bytes", footprint_bytes)
    check_positive("passes", passes)
    lines = max(1, footprint_bytes // line_bytes)
    single = np.arange(lines, dtype=np.int64) * line_bytes
    return np.tile(single, passes)


def strided_trace(
    footprint_bytes: int,
    stride_bytes: int,
    accesses: int,
    line_bytes: int = CACHE_LINE,
) -> np.ndarray:
    """Fixed-stride walk, wrapping at the footprint."""
    check_positive("footprint_bytes", footprint_bytes)
    check_positive("stride_bytes", stride_bytes)
    check_positive("accesses", accesses)
    offsets = (np.arange(accesses, dtype=np.int64) * stride_bytes) % footprint_bytes
    return (offsets // line_bytes) * line_bytes


def random_trace(
    footprint_bytes: int,
    accesses: int,
    *,
    seed: int | None = None,
    line_bytes: int = CACHE_LINE,
    scattered: bool = False,
) -> np.ndarray:
    """Uniform random line addresses within the footprint.

    ``scattered=False`` uses a contiguous footprint (lines 0..F-1), the
    view of a single mmap'd buffer in *virtual* addresses.
    ``scattered=True`` places the F lines at random *physical* addresses
    in a 64x larger space — the OS page-scatter situation a memory-side
    cache actually indexes with, and the assumption behind the analytic
    ``(1/r)(1-e^-r)`` hit-rate form.
    """
    check_positive("footprint_bytes", footprint_bytes)
    check_positive("accesses", accesses)
    rng = make_rng(seed, "random-trace", footprint_bytes, accesses, scattered)
    lines = max(1, footprint_bytes // line_bytes)
    picks = rng.integers(0, lines, size=accesses)
    if not scattered:
        return picks * line_bytes
    space = 64 * lines
    placement = rng.choice(space, size=lines, replace=False)
    return placement[picks] * line_bytes


def zipfian_trace(
    footprint_bytes: int,
    accesses: int,
    *,
    skew: float = 0.99,
    seed: int | None = None,
    line_bytes: int = CACHE_LINE,
) -> np.ndarray:
    """Zipf-distributed line addresses (rank-1 line most popular).

    Uses inverse-CDF sampling over the truncated zeta distribution; the
    popular lines are scattered over the footprint with a fixed random
    permutation so popularity is not correlated with cache sets.
    """
    check_positive("footprint_bytes", footprint_bytes)
    check_positive("accesses", accesses)
    if skew <= 0:
        raise ValueError(f"skew must be positive, got {skew}")
    rng = make_rng(seed, "zipf-trace", footprint_bytes, accesses, skew)
    lines = max(1, footprint_bytes // line_bytes)
    ranks = np.arange(1, lines + 1, dtype=np.float64)
    weights = ranks**-skew
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    draws = rng.random(accesses)
    picked = np.searchsorted(cdf, draws)
    scatter = rng.permutation(lines)
    return scatter[picked] * line_bytes


@dataclass(frozen=True)
class TraceResult:
    """Outcome of driving a cache with a trace."""

    accesses: int
    hit_rate: float
    steady_hit_rate: float


def drive_cache(
    geometry: CacheGeometry,
    trace: np.ndarray,
    *,
    warmup_fraction: float = 0.5,
) -> TraceResult:
    """Run a trace through a functional cache.

    ``steady_hit_rate`` excludes the first ``warmup_fraction`` of the
    trace (cold misses), which is what the analytic steady-state formulas
    predict.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
    cache = SetAssociativeCache(geometry)
    hits = cache.access_block(np.asarray(trace, dtype=np.int64))
    split = int(len(trace) * warmup_fraction)
    steady = hits[split:]
    return TraceResult(
        accesses=len(trace),
        hit_rate=float(hits.mean()) if len(trace) else 0.0,
        steady_hit_rate=float(steady.mean()) if len(steady) else 0.0,
    )


def miniature_mcdram_cache(
    capacity_lines: int = 1024, associativity: int = 1
) -> CacheGeometry:
    """A scaled-down direct-mapped 'MCDRAM cache' for validation runs.

    The analytic formulas depend only on the footprint/capacity *ratio*,
    so a 64 KiB miniature validates the 16 GiB model.
    """
    check_positive("capacity_lines", capacity_lines)
    return CacheGeometry(
        name="mini-mcdram",
        capacity_bytes=capacity_lines * CACHE_LINE,
        associativity=associativity,
        load_to_use_ns=1.0,
    )
