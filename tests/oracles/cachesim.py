"""A functional set-associative cache simulator.

:class:`SetAssociativeCache` is driven by explicit address streams.  It
validates the analytic models in tests (e.g. that a direct-mapped cache
really shows the conflict behaviour the MCDRAM-cache model assumes) and
lets property-based tests assert conservation invariants (hits + misses
== accesses, occupancy <= capacity).  Its geometry is the production
:class:`repro.machine.caches.CacheGeometry`.

:meth:`SetAssociativeCache.access_block` takes a numpy address array in
one call, avoiding per-access attribute traffic; LRU still needs the
sequential state update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.caches import CacheGeometry


@dataclass
class CacheStats:
    """Counters reported by :class:`SetAssociativeCache`."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """Functional LRU set-associative cache over byte addresses.

    LRU is exact.  Addresses are byte addresses; each access touches the
    line containing the address (accesses never straddle lines — the
    simulator is used with line-aligned synthetic streams).
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.stats = CacheStats()
        # tags[set, way] holds the line tag; -1 means invalid.
        self._tags = np.full(
            (geometry.num_sets, geometry.associativity), -1, dtype=np.int64
        )
        # lru[set, way]: larger = more recently used.
        self._lru = np.zeros(
            (geometry.num_sets, geometry.associativity), dtype=np.int64
        )
        self._clock = 0

    # -- single-access path -------------------------------------------------
    def _line_of(self, address: int) -> int:
        return address // self.geometry.line_bytes

    def _set_of(self, line: int) -> int:
        return line % self.geometry.num_sets

    def access(self, address: int) -> bool:
        """Touch ``address``; returns True on hit.  Misses fill with LRU
        replacement."""
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        line = self._line_of(address)
        set_idx = self._set_of(line)
        self._clock += 1
        self.stats.accesses += 1
        ways = self._tags[set_idx]
        hit_ways = np.nonzero(ways == line)[0]
        if hit_ways.size:
            self._lru[set_idx, hit_ways[0]] = self._clock
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        empty = np.nonzero(ways == -1)[0]
        if empty.size:
            victim = int(empty[0])
        else:
            victim = int(np.argmin(self._lru[set_idx]))
            self.stats.evictions += 1
        self._tags[set_idx, victim] = line
        self._lru[set_idx, victim] = self._clock
        return False

    # -- vectorized path ----------------------------------------------------
    def access_block(self, addresses: np.ndarray) -> np.ndarray:
        """Process an address stream; returns a boolean hit mask.

        Semantically identical to calling :meth:`access` in order; the
        implementation only avoids Python-level attribute traffic, not the
        per-access state update (LRU needs sequential state).
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.ndim != 1:
            raise ValueError("addresses must be a 1-D array")
        if addresses.size and addresses.min() < 0:
            raise ValueError("addresses must be non-negative")
        hits = np.empty(addresses.size, dtype=bool)
        lines = addresses // self.geometry.line_bytes
        sets = lines % self.geometry.num_sets
        tags = self._tags
        lru = self._lru
        clock = self._clock
        n_hits = 0
        n_evict = 0
        for i in range(addresses.size):
            set_idx = sets[i]
            line = lines[i]
            clock += 1
            ways = tags[set_idx]
            pos = -1
            for w in range(ways.shape[0]):
                if ways[w] == line:
                    pos = w
                    break
            if pos >= 0:
                lru[set_idx, pos] = clock
                hits[i] = True
                n_hits += 1
                continue
            hits[i] = False
            victim = -1
            for w in range(ways.shape[0]):
                if ways[w] == -1:
                    victim = w
                    break
            if victim < 0:
                victim = int(np.argmin(lru[set_idx]))
                n_evict += 1
            tags[set_idx, victim] = line
            lru[set_idx, victim] = clock
        self._clock = clock
        self.stats.accesses += int(addresses.size)
        self.stats.hits += n_hits
        self.stats.misses += int(addresses.size) - n_hits
        self.stats.evictions += n_evict
        return hits

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return int((self._tags != -1).sum())

    def contains(self, address: int) -> bool:
        """True if the line holding ``address`` is resident (no LRU update)."""
        line = self._line_of(address)
        return bool((self._tags[self._set_of(line)] == line).any())

    def flush(self) -> None:
        """Invalidate all lines; statistics are preserved."""
        self._tags.fill(-1)
        self._lru.fill(0)
