"""2D mesh interconnect with quadrant clustering.

KNL tiles sit on a 2D mesh; L2 coherence is kept by a distributed tag
directory.  In *quadrant* cluster mode (the testbed's configuration,
Section III-A) the directory for an address lives in the same quadrant as
the memory channel serving it, which shortens the three-hop
core -> directory -> memory path.

The mesh model provides:

* Manhattan hop distances between tile coordinates,
* average directory-lookup latency under a cluster mode, and
* the "mesh L2" aggregate capacity that sets the 64 MB knee of Fig. 3
  ("two mesh L2 cache size" — 2 x 32 MB for the 32 active tiles of a 7210).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from repro.machine.tile import Tile
from repro.util.validation import check_positive


def _axis_pair_distance_sum(counts: list[int]) -> int:
    """Σ |i - j| · counts[i] · counts[j] over ordered index pairs.

    One prefix-sum pass; exact integer arithmetic.  For position i with
    weight n_i, the pairs against all j < i contribute
    n_i · (i·Σn_j - Σj·n_j), and ordered pairs double the one-sided sum.
    """
    total = 0
    cum_count = 0
    cum_weighted = 0
    for i, n in enumerate(counts):
        total += n * (i * cum_count - cum_weighted)
        cum_count += n
        cum_weighted += i * n
    return 2 * total


class ClusterMode(enum.Enum):
    """KNL cluster-on-die modes for the tile mesh."""

    ALL_TO_ALL = "all-to-all"
    QUADRANT = "quadrant"
    SNC4 = "snc-4"

    @property
    def directory_locality_factor(self) -> float:
        """Scale on the average core->directory distance.

        Quadrant mode confines directory homes to the requester's quadrant,
        roughly halving the average hop count versus all-to-all; SNC-4 also
        localizes memory but exposes NUMA subdomains (not used by the
        paper's testbed, provided for completeness).
        """
        return {
            ClusterMode.ALL_TO_ALL: 1.0,
            ClusterMode.QUADRANT: 0.55,
            ClusterMode.SNC4: 0.5,
        }[self]


@dataclass(frozen=True)
class Mesh2D:
    """Rectangular mesh of tiles.

    Parameters
    ----------
    rows, cols:
        Mesh shape.  A 7210 exposes 32 active tiles laid out on the 6x6+
        physical grid; we model the 32 active tiles as rows x cols = 4 x 8.
    tiles:
        The tile list, row-major; ``len(tiles) <= rows * cols`` (dark
        silicon/disabled tiles leave holes at the end).
    hop_latency_ns:
        Per-hop mesh traversal latency.
    cluster_mode:
        Directory clustering mode; the testbed uses quadrant.
    """

    rows: int
    cols: int
    tiles: tuple[Tile, ...]
    hop_latency_ns: float = 1.6
    cluster_mode: ClusterMode = ClusterMode.QUADRANT

    def __post_init__(self) -> None:
        check_positive("rows", self.rows)
        check_positive("cols", self.cols)
        check_positive("hop_latency_ns", self.hop_latency_ns)
        if not self.tiles:
            raise ValueError("mesh must contain at least one tile")
        if len(self.tiles) > self.rows * self.cols:
            raise ValueError(
                f"{len(self.tiles)} tiles do not fit a {self.rows}x{self.cols} mesh"
            )

    # -- geometry -----------------------------------------------------------
    def coordinates(self, tile_index: int) -> tuple[int, int]:
        """(row, col) of a tile by positional index (row-major placement)."""
        if not 0 <= tile_index < len(self.tiles):
            raise ValueError(f"tile index {tile_index} out of range")
        return divmod(tile_index, self.cols)

    def hop_distance(self, a: int, b: int) -> int:
        """Manhattan hop count between two tiles (XY routing)."""
        ra, ca = self.coordinates(a)
        rb, cb = self.coordinates(b)
        return abs(ra - rb) + abs(ca - cb)

    def average_hop_distance(self) -> float:
        """Mean hop distance over all ordered tile pairs (a != b).

        Computed in closed form per axis and cached on the frozen mesh:
        Manhattan distance separates into |Δrow| + |Δcol|, so the pair sum
        is the sum of two one-dimensional weighted pair-distance sums over
        the row/column occupancy counts of the row-major tile layout.
        Both axis sums are exact integers, so the single float division
        is bit-identical to the O(n²) sum over ordered tile pairs (pinned
        by ``tests/machine/test_mesh.py``).
        """
        return self._average_hop_distance

    @cached_property
    def _average_hop_distance(self) -> float:
        n = len(self.tiles)
        if n == 1:
            return 0.0
        full_rows, tail = divmod(n, self.cols)
        # Occupancy per row index and per column index for the first n
        # row-major grid positions (a possibly partial last row).
        row_counts = [self.cols] * full_rows + ([tail] if tail else [])
        col_counts = [
            full_rows + (1 if c < tail else 0) for c in range(self.cols)
        ]
        total = _axis_pair_distance_sum(row_counts) + _axis_pair_distance_sum(
            col_counts
        )
        return total / (n * (n - 1))

    # -- coherence timing ---------------------------------------------------
    def directory_lookup_ns(self) -> float:
        """Average latency of a tag-directory lookup for a miss.

        core -> home-directory traversal plus the directory access itself;
        quadrant mode shortens the traversal (see
        :attr:`ClusterMode.directory_locality_factor`).  Cached on the
        frozen mesh: the scalar model calls this per phase per run.
        """
        return self._directory_lookup_ns

    @cached_property
    def _directory_lookup_ns(self) -> float:
        traverse = (
            self.average_hop_distance()
            * self.hop_latency_ns
            * self.cluster_mode.directory_locality_factor
        )
        directory_access_ns = 8.0
        return traverse + directory_access_ns

    def remote_l2_forward_ns(self) -> float:
        """Average latency of a cache-to-cache (MESIF forward) transfer.

        Covers the directory lookup plus the forward from the owning tile.
        This sets the ~200 ns tier of Fig. 3 together with memory latency:
        blocks between 1 MB and 64 MB mostly live spread over other tiles'
        L2 slices or main memory.  Cached on the frozen mesh like
        :meth:`directory_lookup_ns`.
        """
        return self._remote_l2_forward_ns

    @cached_property
    def _remote_l2_forward_ns(self) -> float:
        return (
            self.directory_lookup_ns()
            + self.average_hop_distance() * self.hop_latency_ns
        )

    # -- aggregates -----------------------------------------------------------
    @property
    def num_tiles(self) -> int:
        return len(self.tiles)

    @cached_property
    def total_l2_bytes(self) -> int:
        """Aggregate "mesh L2" capacity (32 MB on the modelled 7210)."""
        return sum(t.l2_capacity_bytes for t in self.tiles)

    def cores(self) -> list:
        """All cores on the mesh, in tile order."""
        return [core for tile in self.tiles for core in tile.cores]
