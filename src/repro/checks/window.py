"""Metrics windows: per-run deltas over the observability stream.

The invariants in :mod:`repro.checks.invariants` audit *event
conservation* — bytes moved per device, MCDRAM-cache hits/misses, TLB
walks — and those events accumulate in the global
:class:`~repro.obs.metrics.MetricsRegistry` across every run of a
session.  A :class:`MetricsWindow` brackets exactly one run: it
snapshots the relevant counters before the run, reads them again after,
and exposes the difference, so a checker can ask "how many DRAM bytes
did *this* run move" regardless of what ran before it.

When no observation session is active, :func:`metrics_window`
temporarily installs a private registry for the duration of the run and
uninstalls it afterwards — checking works identically with or without
``--trace-out``/``--metrics-out``.  A module-level lock serializes
windowed runs within one process (two concurrent runs would blend their
deltas).
"""

from __future__ import annotations

import threading
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from typing import Any

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry

__all__ = ["MetricsWindow", "metrics_window", "COUNTER_KEYS", "GAUGE_KEYS"]

_PATTERNS = ("sequential", "random")

#: Counters whose per-run deltas the invariants consume.
COUNTER_KEYS: tuple[tuple[str, dict[str, str] | None], ...] = tuple(
    [("model.bytes_moved", {"device": d}) for d in ("dram", "mcdram")]
    + [
        (f"mcdram_cache.{event}", {"pattern": p})
        for event in ("accesses", "hits", "misses", "conflict_misses")
        for p in _PATTERNS
    ]
    + [("tlb.l1_misses", None), ("tlb.walks", None)]
)

#: Gauges read at window close (last-written semantics; no delta).
GAUGE_KEYS: tuple[tuple[str, dict[str, str] | None], ...] = tuple(
    [("mcdram_cache.hit_rate", {"pattern": p}) for p in _PATTERNS]
    + [("tlb.walk_depth", None)]
)

# One windowed run at a time per process: concurrent runs in the same
# registry would blend their counter deltas.
_WINDOW_LOCK = threading.Lock()


def _key(name: str, labels: Mapping[str, Any] | None) -> tuple[str, tuple]:
    return (name, tuple(sorted(labels.items())) if labels else ())


class MetricsWindow:
    """Before/after counter deltas (and closing gauges) for one run."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._before = {
            _key(name, labels): registry.counter_value(name, labels)
            for name, labels in COUNTER_KEYS
        }
        self._deltas: dict[tuple[str, tuple], float] | None = None
        self._gauges: dict[tuple[str, tuple], float | None] | None = None

    def finish(self) -> None:
        """Read the after-side; the window becomes queryable."""
        registry = self._registry
        self._deltas = {
            _key(name, labels): registry.counter_value(name, labels)
            - self._before[_key(name, labels)]
            for name, labels in COUNTER_KEYS
        }
        self._gauges = {
            _key(name, labels): registry.gauge_value(name, labels)
            for name, labels in GAUGE_KEYS
        }

    @property
    def finished(self) -> bool:
        return self._deltas is not None

    def delta(self, name: str, labels: Mapping[str, Any] | None = None) -> float:
        """Counter increase across the window (0.0 when never written)."""
        if self._deltas is None:
            raise RuntimeError("window not finished; call finish() first")
        try:
            return self._deltas[_key(name, labels)]
        except KeyError:
            raise KeyError(
                f"{name!r} with labels {labels!r} is not a windowed counter"
            ) from None

    def gauge(
        self, name: str, labels: Mapping[str, Any] | None = None
    ) -> float | None:
        """Gauge value at window close (None when never written)."""
        if self._gauges is None:
            raise RuntimeError("window not finished; call finish() first")
        try:
            return self._gauges[_key(name, labels)]
        except KeyError:
            raise KeyError(
                f"{name!r} with labels {labels!r} is not a windowed gauge"
            ) from None


@contextmanager
def metrics_window() -> Iterator[MetricsWindow]:
    """Bracket one run with a :class:`MetricsWindow`.

    Reuses the session's registry when one is installed (the window is
    purely a pair of snapshots — nothing the user exports changes);
    otherwise installs a private registry for the duration and removes
    it on exit, leaving the global no-op fast path exactly as found.
    """
    with _WINDOW_LOCK:
        registry = obs_metrics.active_registry()
        temporary = registry is None
        if temporary:
            registry = obs_metrics.install()
        window = MetricsWindow(registry)
        try:
            yield window
        finally:
            window.finish()
            if temporary:
                obs_metrics.uninstall()
