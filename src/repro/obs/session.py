"""Observation sessions: enable, collect, export.

An :class:`Observation` owns one :class:`~repro.obs.trace.Tracer` and one
:class:`~repro.obs.metrics.MetricsRegistry` and installs/uninstalls both
atomically.  Use it as a context manager around any pipeline entry point
— a figure generator, a sweep, a single ``runner.run`` — and everything
instrumented underneath reports into it:

>>> from repro import obs
>>> with obs.observe() as session:
...     fig4.generate_c(runner)
>>> session.write(trace_out="fig4c.trace.json", metrics_out="fig4c.metrics.json")

Exports:

* ``metrics_out`` — the registry's JSON (:meth:`Observation.metrics_dict`),
* ``trace_out`` — a Chrome ``trace_event`` file
  (:meth:`Observation.chrome_trace`) for ``chrome://tracing`` / Perfetto.

Environment wiring: :func:`observation_from_env` honours ``REPRO_TRACE``
(truthy values enable; ``0``/``false``/``off``/empty keep the no-op fast
path) plus ``REPRO_TRACE_OUT`` / ``REPRO_METRICS_OUT`` for export paths.
"""

from __future__ import annotations

import json
import os
import pathlib
from collections.abc import Mapping
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs import metrics as metrics_mod
from repro.obs import trace as trace_mod

__all__ = [
    "Observation",
    "observe",
    "enabled",
    "observation_from_env",
    "env_truthy",
]

_FALSY = {"", "0", "false", "off", "no"}


def env_truthy(value: str | None) -> bool:
    """The ``REPRO_TRACE`` convention: unset/0/false/off/no disable."""
    return value is not None and value.strip().lower() not in _FALSY


def enabled() -> bool:
    """True while any observation session is installed."""
    return trace_mod.enabled() or metrics_mod.enabled()


class Observation:
    """One tracing+metrics collection window."""

    def __init__(self) -> None:
        self.tracer = trace_mod.Tracer()
        self.metrics = metrics_mod.MetricsRegistry()
        self._active = False

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "Observation":
        if self._active:
            raise RuntimeError("observation already started")
        if trace_mod.enabled() or metrics_mod.enabled():
            raise RuntimeError(
                "another observation session is already installed; "
                "observations do not nest"
            )
        trace_mod.install(self.tracer)
        metrics_mod.install(self.metrics)
        self._active = True
        return self

    def stop(self) -> "Observation":
        if self._active:
            trace_mod.uninstall()
            metrics_mod.uninstall()
            self._active = False
        return self

    def __enter__(self) -> "Observation":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- views ----------------------------------------------------------------
    def spans(self) -> list[trace_mod.SpanRecord]:
        return self.tracer.records()

    def metrics_dict(self) -> dict[str, Any]:
        return self.metrics.as_dict()

    def chrome_trace(self) -> dict[str, Any]:
        return trace_mod.to_chrome_trace(self.tracer.records())

    def summary(self) -> str:
        """One-line account for stderr reporting."""
        exported = self.metrics_dict()
        instruments = (
            len(exported["counters"])
            + len(exported["gauges"])
            + len(exported["histograms"])
        )
        return f"{len(self.tracer)} spans, {instruments} metric series"

    # -- export ---------------------------------------------------------------
    def write(
        self,
        *,
        trace_out: str | os.PathLike[str] | None = None,
        metrics_out: str | os.PathLike[str] | None = None,
    ) -> list[pathlib.Path]:
        """Write the requested JSON exports; returns the paths written."""
        written: list[pathlib.Path] = []
        if trace_out is not None:
            path = pathlib.Path(trace_out)
            path.write_text(json.dumps(self.chrome_trace(), indent=1))
            written.append(path)
        if metrics_out is not None:
            path = pathlib.Path(metrics_out)
            path.write_text(json.dumps(self.metrics_dict(), indent=1, sort_keys=True))
            written.append(path)
        return written


@contextmanager
def observe() -> Iterator[Observation]:
    """Collect spans and metrics for the duration of the block."""
    session = Observation()
    session.start()
    try:
        yield session
    finally:
        session.stop()


def observation_from_env(
    env: Mapping[str, str] | None = None,
) -> Observation | None:
    """Start an :class:`Observation` when ``REPRO_TRACE`` asks for one.

    Returns the started session (caller owns ``stop()``/``write()``), or
    ``None`` when the environment leaves observability disabled.  This is
    the env-only analogue of the CLI's ``--trace-out``/``--metrics-out``.
    """
    env = env if env is not None else os.environ
    if not env_truthy(env.get("REPRO_TRACE")):
        return None
    return Observation().start()
