"""The paper's measured hardware characterization, in one place.

Every constant the models are calibrated against is recorded here with its
source in the paper, so tests can assert the models reproduce them and
EXPERIMENTS.md can cite them.  Only tests read this table: the engine and
the device models carry their own constants and import nothing from it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PaperCharacterization:
    """Section IV-A measurements on the Archer KNL 7210 testbed."""

    # STREAM triad, 64 threads, one hardware thread per core (Fig. 2).
    dram_stream_gbs: float = 77.0
    hbm_stream_gbs: float = 330.0
    # STREAM with >= 2 hardware threads per core (Section IV-A / Fig. 5).
    hbm_stream_max_gbs: float = 420.0
    hbm_smt_gain: float = 1.27
    # Idle latencies (Section IV-A, consistent with McCalpin's measurements).
    dram_latency_ns: float = 130.4
    hbm_latency_ns: float = 154.0
    # Latency gap band reported for Fig. 3.
    latency_gap_min: float = 0.15
    latency_gap_max: float = 0.20
    # Cache-mode STREAM anchors (Fig. 2), decimal GB sizes.
    cache_peak_gbs: float = 260.0
    cache_peak_size_gb: float = 8.0
    cache_drop_gbs: float = 125.0
    cache_drop_size_gb: float = 11.4
    cache_below_dram_size_gb: float = 24.0
    # Fig. 3 latency tiers.
    l2_tier_ns: float = 10.0
    mid_tier_ns: float = 200.0
    mid_tier_limit_mb: float = 64.0
    growth_onset_mb: float = 128.0
    # Headline application results.
    dgemm_hbm_speedup: float = 2.0       # Fig. 4a
    minife_hbm_speedup: float = 3.0      # Fig. 4b
    minife_ht_speedup: float = 3.8       # 4 threads/core vs DRAM 1/core
    graph500_dram_vs_cache: float = 1.3  # Fig. 4d, large graphs
    dgemm_ht_speedup: float = 1.7        # Fig. 6a, 192 vs 64 threads
    xsbench_ht_speedup_hbm: float = 2.5  # Fig. 6d, 256 threads
    xsbench_ht_speedup_dram: float = 1.5
    graph500_ht_speedup: float = 1.5     # Fig. 6c, peak at 128 threads
    # Node configuration (Section III-A).
    cores: int = 64
    frequency_ghz: float = 1.3
    smt: int = 4
    dram_gib: float = 96.0
    hbm_gib: float = 16.0


PAPER_CHARACTERIZATION = PaperCharacterization()
