"""TTL + LRU result cache for the prediction service.

The service keys it by the canonical wire
:class:`~repro.api.types.Query` itself (frozen and hashable: two
spellings of one question compare equal), so an entry is valid for
exactly as long as the model is deterministic — forever — and the TTL
exists purely to bound staleness against *code* changes in a long-lived
process and to keep the working set honest.  Values are whole
:class:`~repro.api.types.PredictionResult` objects (feasible and
infeasible alike: both are deterministic answers).

The cache is lock-protected; the service reads and writes it from the
event loop, while tests and the stats endpoints may probe it from other
threads.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Hashable
from typing import Any, Callable, Generic, TypeVar

V = TypeVar("V")

__all__ = ["TTLCache"]


class TTLCache(Generic[V]):
    """LRU-bounded mapping whose entries expire after ``ttl_s`` seconds.

    ``max_entries == 0`` disables the cache entirely (every ``get`` is a
    miss, ``put`` is a no-op).  ``ttl_s`` of ``None`` disables expiry
    (pure LRU).
    """

    def __init__(
        self,
        max_entries: int = 4096,
        ttl_s: float | None = 300.0,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive or None, got {ttl_s}")
        self.max_entries = max_entries
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, tuple[float | None, V]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def get(self, key: Hashable) -> V | None:
        """The live entry for ``key``, refreshing its recency; ``None``
        on miss or expiry."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            expires_at, value = entry
            if expires_at is not None and self._clock() >= expires_at:
                del self._entries[key]
                self.expirations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: V) -> None:
        if self.max_entries == 0:
            return
        expires_at = None if self.ttl_s is None else self._clock() + self.ttl_s
        with self._lock:
            self._entries[key] = (expires_at, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, Any]:
        """JSON-ready counter snapshot."""
        with self._lock:
            size = len(self._entries)
        return {
            "entries": size,
            "max_entries": self.max_entries,
            "ttl_s": self.ttl_s,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "expirations": self.expirations,
            "evictions": self.evictions,
        }
