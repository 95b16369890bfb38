"""Cache geometry: the per-level parameters of the analytic engine.

:class:`CacheGeometry` instances parameterize the *analytic* performance
engine (capacities and load-to-use latencies set the Fig. 3 tiers).  The
functional set-associative simulator that validates those models against
address streams is a test oracle (``tests/oracles/cachesim.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import CACHE_LINE, KiB, MiB
from repro.util.validation import check_positive


@dataclass(frozen=True)
class CacheGeometry:
    """Static description of one cache level.

    Parameters
    ----------
    name:
        Human-readable level name ("L1D", "L2", "MCDRAM-cache").
    capacity_bytes:
        Total data capacity.
    line_bytes:
        Cache-line size; 64 B everywhere on KNL.
    associativity:
        Number of ways; ``1`` means direct-mapped (the MCDRAM cache).
    load_to_use_ns:
        Load-to-use hit latency in nanoseconds.
    """

    name: str
    capacity_bytes: int
    line_bytes: int = CACHE_LINE
    associativity: int = 8
    load_to_use_ns: float = 1.0

    def __post_init__(self) -> None:
        check_positive("capacity_bytes", self.capacity_bytes)
        check_positive("line_bytes", self.line_bytes)
        check_positive("associativity", self.associativity)
        check_positive("load_to_use_ns", self.load_to_use_ns)
        if self.capacity_bytes % self.line_bytes:
            raise ValueError(
                f"{self.name}: capacity {self.capacity_bytes} not a multiple of "
                f"line size {self.line_bytes}"
            )
        if self.num_lines % self.associativity:
            raise ValueError(
                f"{self.name}: {self.num_lines} lines not divisible by "
                f"{self.associativity} ways"
            )

    @property
    def num_lines(self) -> int:
        return self.capacity_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    @property
    def is_direct_mapped(self) -> bool:
        return self.associativity == 1


def knl_l1d() -> CacheGeometry:
    """The private 32 KB L1 data cache of a KNL core (Section II)."""
    return CacheGeometry(
        name="L1D",
        capacity_bytes=32 * KiB,
        associativity=8,
        load_to_use_ns=4 / 1.3,  # ~4 cycles at 1.3 GHz
    )


def knl_l2() -> CacheGeometry:
    """The 1 MB L2 cache shared by the two cores of a tile.

    The ~10 ns tier of Fig. 3 for blocks below 1 MB is the L2 hit latency
    (the paper excludes L1 from the TinyMemBench measurement).
    """
    return CacheGeometry(
        name="L2",
        capacity_bytes=1 * MiB,
        associativity=16,
        load_to_use_ns=10.0,
    )
