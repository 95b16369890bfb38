"""Discrete-event memory-system simulator.

An independent, finer-grained second opinion on the analytic engine:
threads issue cache-line requests into per-channel queues of a memory
device; each channel serves one request at a time at the device's service
rate; a thread keeps at most ``mlp`` requests in flight (closed-loop).

The simulator makes no use of Little's law — throughput *emerges* from
queueing — so agreement with the analytic model on both regimes
(latency-bound at low concurrency, bandwidth-bound at high concurrency)
is a real consistency check, exercised in
``tests/engine/test_eventsim.py``.  No production path runs it.

Scale: event-driven with a heap, O((requests) log channels); tests run
tens of thousands of requests in tens of milliseconds.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.memory.device import MemoryDevice
from repro.util.prng import make_rng
from repro.util.units import CACHE_LINE, NS_PER_S
from repro.util.validation import check_positive


@dataclass(frozen=True)
class EventSimResult:
    """Aggregate outcome of a simulation run."""

    requests: int
    elapsed_ns: float
    mean_latency_ns: float

    @property
    def bandwidth_bytes_per_s(self) -> float:
        if self.elapsed_ns == 0:
            return 0.0
        return self.requests * CACHE_LINE / (self.elapsed_ns / NS_PER_S)


class MemoryEventSimulator:
    """Closed-loop queueing simulation of one memory device.

    Parameters
    ----------
    device:
        Supplies the unloaded access latency and the aggregate service
        bandwidth (``peak_bandwidth`` split evenly over ``channels``).
    sequential:
        Sequential streams enjoy row-buffer/prefetch efficiency: service
        time per line is ``line / (peak / channels)``; random streams pay
        the device's random-capacity service rate instead.
    """

    def __init__(self, device: MemoryDevice, *, sequential: bool = True) -> None:
        self.device = device
        self.sequential = sequential
        peak = (
            device.peak_bandwidth if sequential else device.random_bandwidth_cap
        )
        self.channels = device.channels
        self.service_ns = CACHE_LINE / (peak / self.channels) * NS_PER_S
        # The pipe/wire delay that is not queueing: idle latency minus one
        # unloaded service time.
        self.wire_ns = max(0.0, device.idle_latency_ns - self.service_ns)

    def run(
        self,
        *,
        threads: int,
        mlp: float,
        requests_per_thread: int,
        seed: int | None = None,
    ) -> EventSimResult:
        """Simulate ``threads`` x ``requests_per_thread`` line requests.

        Each thread keeps ``mlp`` requests outstanding; completions
        immediately release the next request (closed loop).  Requests are
        spread over channels uniformly at random (address hashing).
        """
        check_positive("threads", threads)
        check_positive("mlp", mlp)
        check_positive("requests_per_thread", requests_per_thread)
        rng = make_rng(seed, "eventsim", threads, mlp, requests_per_thread)

        total = threads * requests_per_thread
        window = max(1, int(round(mlp)))
        # channel_free[c]: time channel c becomes free.
        channel_free = np.zeros(self.channels)
        # Heap of (completion_time, thread) for in-flight requests.
        in_flight: list[tuple[float, int]] = []
        remaining = np.full(threads, requests_per_thread, dtype=np.int64)
        issued_at: list[float] = []
        completed_at: list[float] = []
        now = 0.0

        def issue(thread: int, time_now: float) -> None:
            channel = int(rng.integers(0, self.channels))
            start = max(time_now, channel_free[channel])
            finish = start + self.service_ns
            channel_free[channel] = finish
            completion = finish + self.wire_ns
            heapq.heappush(in_flight, (completion, thread))
            issued_at.append(time_now)
            completed_at.append(completion)
            remaining[thread] -= 1

        # Prime every thread's window.
        for thread in range(threads):
            for _ in range(min(window, requests_per_thread)):
                issue(thread, 0.0)

        while in_flight:
            now, thread = heapq.heappop(in_flight)
            if remaining[thread] > 0:
                issue(thread, now)

        latencies = np.array(completed_at) - np.array(issued_at)
        return EventSimResult(
            requests=total,
            elapsed_ns=now,
            mean_latency_ns=float(latencies.mean()),
        )
