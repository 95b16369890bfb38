"""Host-speed calibration: a fixed pure-Python kernel timed beside every window.

The benchmark host is a few vCPUs of a shared machine, and its speed
drifts: a single-thread loop runs up to twice as long in spells that last
from seconds to minutes, and the drift shows in CPU time as well as wall
time (it is not hypervisor steal).  A window's raw timings therefore
follow the host as much as the program.

Each vCPU drifts on its own, so the server tree is pinned to one CPU
and the benchmark times :func:`kernel` on that CPU, from the client
process, right before and right after each short measured segment,
while the server is idle.  It scales every time the segment measured by
``REFERENCE_S / kernel seconds``.  A calibrated time is the time the
segment would have taken on a host that runs the kernel in
``REFERENCE_S``.  The kernel never touches the program under test, so a
faster program still reads faster; only the host's drift cancels.
"""

from __future__ import annotations

import os
import statistics
import time

#: Kernel seconds of the nominal host every calibrated time refers to.
REFERENCE_S = 0.005
#: Kernel calls per probe; the probe reports their median.
CALLS = 5


class _Item:
    __slots__ = ("key", "weight", "cost")

    def __init__(self, key: int, weight: float, cost: float) -> None:
        self.key, self.weight, self.cost = key, weight, cost


def kernel() -> float:
    """A fixed mix of the interpreter work the service does: small-object
    construction, attribute reads, dict updates, float arithmetic, string
    formatting and a sort.  Returns a checksum so nothing is elided."""
    items = [
        _Item(i * 7919 % 1009, 0.25 + (i % 13) * 0.5, 1.0 / (1 + i % 17))
        for i in range(4500)
    ]
    totals: dict[int, float] = {}
    for item in items:
        totals[item.key] = totals.get(item.key, 0.0) + item.weight * item.cost
    labels = [f"{key}:{value:.3f}" for key, value in totals.items()]
    ranked = sorted(items, key=lambda item: (item.cost * item.weight, item.key))
    return sum(len(label) for label in labels) + ranked[0].weight


def probe(cpus: set[int] | None = None, calls: int = CALLS) -> float:
    """Median seconds of ``calls`` back-to-back kernel calls, run on
    ``cpus`` (default: wherever this process may run)."""
    home = os.sched_getaffinity(0)
    if cpus:
        os.sched_setaffinity(0, cpus)
    try:
        seconds = []
        for _ in range(calls):
            start = time.perf_counter()
            kernel()
            seconds.append(time.perf_counter() - start)
    finally:
        if cpus:
            os.sched_setaffinity(0, home)
    return statistics.median(seconds)


def factor(before_s: float, after_s: float) -> float:
    """The scale for times measured between two probes."""
    return REFERENCE_S / ((before_s + after_s) / 2)
