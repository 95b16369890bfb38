"""Structured observability: tracing, metrics and profiling hooks.

The paper's contribution is *measurement* — bandwidth tiers, cache hit
behaviour, concurrency effects — and this package makes the
reproduction's own internals measurable the same way.  Three layers, all
zero-dependency and **off by default with a no-op fast path**:

* :mod:`repro.obs.trace` — nested wall-time spans
  (``runner.run`` > ``perfmodel.run`` > ``perfmodel.phase`` ...), with a
  Chrome ``trace_event`` export for ``chrome://tracing`` / Perfetto;
* :mod:`repro.obs.metrics` — counters/gauges/histograms for the model
  internals the paper reports: per-device bytes moved, MCDRAM-cache
  hit/miss/conflict counts, TLB walks, Little's-law concurrency,
  executor cache hit rates;
* :mod:`repro.obs.profiling` — per-sweep-cell cost/outcome hooks on
  :class:`~repro.core.executor.SweepExecutor`.

Entry points:

* library — ``with obs.observe() as session: ...; session.write(...)``;
* CLI — ``python -m repro --trace-out t.json --metrics-out m.json fig4c``;
* environment — ``REPRO_TRACE=1`` (plus ``REPRO_TRACE_OUT`` /
  ``REPRO_METRICS_OUT``).

Enabling observability never changes a reported number: instrumentation
only reads model state, and the golden-identity test
(``tests/obs/test_golden_identity.py``) proves every exhibit renders
byte-identically with tracing on.  See ``docs/OBSERVABILITY.md`` for the
span/metric catalogue and a worked Fig. 4 example.
"""

from repro.obs import metrics, trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import CellProfile, CellProfileCollector, ProfileHook
from repro.obs.session import (
    Observation,
    enabled,
    env_truthy,
    observation_from_env,
    observe,
)
from repro.obs.trace import SpanRecord, Tracer, span, to_chrome_trace

__all__ = [
    "trace",
    "metrics",
    "span",
    "enabled",
    "observe",
    "Observation",
    "observation_from_env",
    "env_truthy",
    "Tracer",
    "SpanRecord",
    "MetricsRegistry",
    "to_chrome_trace",
    "CellProfile",
    "CellProfileCollector",
    "ProfileHook",
]
