"""Consistent-hash ring routing wire query keys to replicas.

The sharded deployment (:mod:`repro.serve.shard`) places every query on
a replica by its **wire key** (:func:`query_key`, a string of the
canonical :class:`~repro.api.types.Query` fields), so a query always
lands on the same replica while that replica is alive — which turns
each replica's private TTL result cache (keyed by the same query) into
one slice of a fleet-wide cache with no coordination at all.  The key
needs no model: the router computes it without resolving the query.

Design constraints, each load-bearing:

* **Process-stable hashing.**  Points come from SHA-256 over
  ``b"replica:vnode"`` / the raw key bytes, never from :func:`hash` —
  Python randomizes string hashing per process (PYTHONHASHSEED), and a
  ring that moved between the router process and a restarted replica
  would silently empty every cache.  ``tests/serve/test_ring.py`` pins
  assignments across subprocesses with different hash seeds.
* **Virtual nodes.**  Each replica owns ``vnodes`` points; with tens of
  points per replica the keyspace shares concentrate near ``1/N``
  (balance is property-tested within a tolerance bound).
* **Minimal remapping.**  Adding or removing a replica only moves the
  keys adjacent to that replica's points: the property suite proves
  keys whose owner survives a membership change keep their owner.

The ring itself is immutable-by-convention and not thread-safe; the
:class:`~repro.serve.registry.ReplicaSet` rebuilds one atomically on
every membership or health transition.
"""

from __future__ import annotations

import bisect
import hashlib
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.api.types import Query

__all__ = ["HashRing", "DEFAULT_VNODES", "stable_point", "query_key"]

#: Virtual nodes per replica.  64 keeps the largest/smallest keyspace
#: share within ~2x of each other for small fleets, at a few KiB of ring.
DEFAULT_VNODES = 64

_SPACE = 2**64


def stable_point(data: str) -> int:
    """A 64-bit ring position derived only from ``data``'s bytes.

    SHA-256 truncated to 64 bits: identical in every process regardless
    of ``PYTHONHASHSEED``, which is the property the whole deployment
    rests on (router, replicas and clients must agree on ownership).
    """
    digest = hashlib.sha256(data.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def query_key(query: "Query") -> str:
    """The ring key of one wire query: its canonical fields joined by
    ``|`` (the size as its ``repr``, which round-trips the float)."""
    return (
        f"{query.workload}|{query.size_gb!r}|{query.config}|"
        f"{query.num_threads}|{query.machine}"
    )


class HashRing:
    """Consistent-hash ring mapping string keys to replica ids.

    Parameters
    ----------
    replicas:
        Initial replica ids (order-insensitive: the ring layout depends
        only on the id *strings*).
    vnodes:
        Points per replica.
    """

    def __init__(
        self,
        replicas: Iterable[str] = (),
        *,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._points: list[int] = []
        self._owners: list[str] = []  # parallel to _points
        self._replicas: set[str] = set()
        for replica in replicas:
            self.add(replica)

    # -- membership -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._replicas)

    def __contains__(self, replica: str) -> bool:
        return replica in self._replicas

    @property
    def replicas(self) -> frozenset[str]:
        return frozenset(self._replicas)

    def add(self, replica: str) -> None:
        """Insert a replica's virtual points (idempotent)."""
        if not replica:
            raise ValueError("replica id must be non-empty")
        if replica in self._replicas:
            return
        self._replicas.add(replica)
        for v in range(self.vnodes):
            point = stable_point(f"{replica}:{v}")
            index = bisect.bisect_left(self._points, point)
            # SHA-256 collisions at 64 bits are astronomically unlikely
            # for fleet-sized rings; ties break by owner id so that even
            # then every process agrees on the layout.
            while (
                index < len(self._points)
                and self._points[index] == point
                and self._owners[index] < replica
            ):
                index += 1
            self._points.insert(index, point)
            self._owners.insert(index, replica)

    def remove(self, replica: str) -> None:
        """Drop a replica's points (idempotent)."""
        if replica not in self._replicas:
            return
        self._replicas.discard(replica)
        keep = [
            (p, o)
            for p, o in zip(self._points, self._owners)
            if o != replica
        ]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    # -- assignment -----------------------------------------------------------
    def assign(self, key: str) -> str:
        """The replica owning ``key`` (first point clockwise)."""
        if not self._points:
            raise LookupError("hash ring is empty (no replicas)")
        index = bisect.bisect_right(self._points, stable_point(key))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def preferences(self, key: str, limit: int | None = None) -> list[str]:
        """Distinct replicas in ring order starting at ``key``'s owner.

        The failover order: the first entry is :meth:`assign`'s answer,
        later entries are the replicas whose points follow clockwise —
        the same succession every process derives, so a client and the
        router fail over to the *same* secondary.
        """
        if not self._points:
            return []
        want = len(self._replicas) if limit is None else min(limit, len(self._replicas))
        start = bisect.bisect_right(self._points, stable_point(key))
        order: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._points)):
            owner = self._owners[(start + offset) % len(self._points)]
            if owner not in seen:
                seen.add(owner)
                order.append(owner)
                if len(order) >= want:
                    break
        return order

    # -- introspection --------------------------------------------------------
    def shares(self) -> dict[str, float]:
        """Fraction of the keyspace each replica owns (sums to 1.0)."""
        if not self._points:
            return {}
        shares = {replica: 0 for replica in self._replicas}
        previous = self._points[-1]
        for point, owner in zip(self._points, self._owners):
            shares[owner] += (point - previous) % _SPACE or _SPACE
            previous = point
        return {replica: arc / _SPACE for replica, arc in shares.items()}

    def describe(self) -> dict[str, object]:
        """JSON-ready layout summary for ``/healthz``."""
        return {
            "replicas": sorted(self._replicas),
            "vnodes": self.vnodes,
            "points": len(self._points),
            "shares": {r: round(s, 4) for r, s in sorted(self.shares().items())},
        }

    def remapped_keys(self, other: "HashRing", keys: Sequence[str]) -> list[str]:
        """Keys whose owner differs between this ring and ``other``
        (test/diagnostic helper for the minimal-remapping property)."""
        return [k for k in keys if self.assign(k) != other.assign(k)]
