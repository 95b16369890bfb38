"""The coalescer: batching, backpressure, cancellation, shutdown.

These tests drive the coalescer directly on a private event loop with a
stub evaluator, so batching behaviour is observable without a model in
the loop.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api.errors import CapacityError
from repro.api.types import PredictionResult, Query
from repro.serve.coalescer import Coalescer


def _query(i: int) -> Query:
    return Query(
        workload="dgemm", size_gb=1.0 + i, config="DRAM", num_threads=64
    )


def _result(query: Query) -> PredictionResult:
    return PredictionResult(
        query=query, metric=query.size_gb, metric_name="x", metric_unit="y"
    )


class RecordingEvaluator:
    """Stub evaluate() that records the batches (and their payloads) it
    was handed."""

    def __init__(self) -> None:
        self.batches: list[list[Query]] = []
        self.payloads: list[list[object]] = []

    def __call__(
        self, queries: list[Query], payloads: list[object]
    ) -> list[PredictionResult]:
        self.batches.append(list(queries))
        self.payloads.append(list(payloads))
        return [_result(q) for q in queries]


def run(coro):
    return asyncio.run(coro)


def test_concurrent_submissions_coalesce_into_one_batch():
    evaluator = RecordingEvaluator()

    async def scenario():
        with ThreadPoolExecutor(1) as pool:
            coalescer = Coalescer(evaluator, pool=pool, max_batch=64)
            coalescer.start()
            futures = [coalescer.submit(_query(i), f"k{i}") for i in range(8)]
            results = await asyncio.gather(*futures)
            await coalescer.stop()
            return results

    results = run(scenario())
    assert len(evaluator.batches) == 1
    assert len(evaluator.batches[0]) == 8
    # Queue order is preserved end to end.
    assert [r.metric for r in results] == [1.0 + i for i in range(8)]
    assert [q.size_gb for q in evaluator.batches[0]] == [
        1.0 + i for i in range(8)
    ]
    # Each payload reaches evaluate beside its query.
    assert evaluator.payloads == [[f"k{i}" for i in range(8)]]


def test_free_dispatcher_sends_at_once_and_queued_arrivals_batch_together():
    # One dispatcher, an evaluator held on an event: the lone first query
    # is dispatched without any timer, and everything submitted while it
    # is held leaves as one batch once it is released.
    release = threading.Event()
    evaluator = RecordingEvaluator()

    def held(queries: list[Query], payloads: list[object]) -> list[PredictionResult]:
        results = evaluator(queries, payloads)
        release.wait(timeout=10.0)
        return results

    async def scenario():
        with ThreadPoolExecutor(1) as pool:
            coalescer = Coalescer(held, pool=pool)
            coalescer.start()
            first = coalescer.submit(_query(0), "k0")
            give_up = time.monotonic() + 10.0
            while not evaluator.batches and time.monotonic() < give_up:
                await asyncio.sleep(0)  # the lone query goes out alone
            assert [len(b) for b in evaluator.batches] == [1]
            later = [coalescer.submit(_query(i), f"k{i}") for i in range(1, 6)]
            for _ in range(10):  # the dispatcher is busy: nothing moves
                await asyncio.sleep(0)
            assert coalescer.queue_depth == 5
            release.set()
            results = await asyncio.gather(first, *later)
            await coalescer.stop()
            return results

    results = run(scenario())
    assert [len(b) for b in evaluator.batches] == [1, 5]
    assert [r.metric for r in results] == [1.0 + i for i in range(6)]


def test_max_batch_splits_the_queue():
    evaluator = RecordingEvaluator()

    async def scenario():
        with ThreadPoolExecutor(1) as pool:
            coalescer = Coalescer(evaluator, pool=pool, max_batch=3)
            coalescer.start()
            futures = [coalescer.submit(_query(i), f"k{i}") for i in range(7)]
            await asyncio.gather(*futures)
            await coalescer.stop()

    run(scenario())
    assert sum(len(b) for b in evaluator.batches) == 7
    assert all(len(b) <= 3 for b in evaluator.batches)


def test_full_queue_rejects_with_capacity_error():
    async def scenario():
        with ThreadPoolExecutor(1) as pool:
            coalescer = Coalescer(
                RecordingEvaluator(), pool=pool, max_queue=2
            )
            coalescer.start()
            # No await between submits: the dispatcher never runs, so the
            # queue genuinely fills.
            first = [coalescer.submit(_query(i), f"k{i}") for i in range(2)]
            with pytest.raises(CapacityError) as excinfo:
                coalescer.submit(_query(2), "k2")
            assert excinfo.value.details["max_queue"] == 2
            assert coalescer.rejected == 1
            await asyncio.gather(*first)
            await coalescer.stop()

    run(scenario())


def test_submit_after_stop_rejects():
    async def scenario():
        with ThreadPoolExecutor(1) as pool:
            coalescer = Coalescer(RecordingEvaluator(), pool=pool)
            coalescer.start()
            await coalescer.stop()
            with pytest.raises(CapacityError):
                coalescer.submit(_query(0), "k0")

    run(scenario())


def test_cancelled_entries_are_never_evaluated():
    evaluator = RecordingEvaluator()

    async def scenario():
        with ThreadPoolExecutor(1) as pool:
            coalescer = Coalescer(evaluator, pool=pool)
            coalescer.start()
            doomed = coalescer.submit(_query(0), "k0")
            kept = coalescer.submit(_query(1), "k1")
            doomed.cancel()  # a request deadline firing while queued
            result = await kept
            await coalescer.stop()
            return result

    result = run(scenario())
    assert result.metric == 2.0
    assert len(evaluator.batches) == 1
    assert [q.size_gb for q in evaluator.batches[0]] == [2.0]


def test_stop_evaluates_queued_work_before_exiting():
    evaluator = RecordingEvaluator()

    async def scenario():
        with ThreadPoolExecutor(1) as pool:
            coalescer = Coalescer(evaluator, pool=pool)
            coalescer.start()
            # Submitted but not yet dispatched when stop() begins.
            queued = coalescer.submit(_query(0), "k0")
            await coalescer.stop()
            return queued

    queued = run(scenario())
    assert queued.result().metric == 1.0
    assert len(evaluator.batches) == 1


def test_stop_fails_leftovers_when_dispatchers_are_gone():
    async def scenario():
        with ThreadPoolExecutor(1) as pool:
            coalescer = Coalescer(RecordingEvaluator(), pool=pool)
            coalescer.start()
            coalescer._task.cancel()  # simulate a crashed loop
            leftover = coalescer.submit(_query(0), "k0")
            await coalescer.stop()
            with pytest.raises(CapacityError):
                leftover.result()

    run(scenario())


def test_drain_waits_for_inflight_work():
    async def scenario():
        with ThreadPoolExecutor(1) as pool:
            coalescer = Coalescer(RecordingEvaluator(), pool=pool)
            coalescer.start()
            futures = [coalescer.submit(_query(i), f"k{i}") for i in range(4)]
            assert await coalescer.drain(timeout=5.0)
            assert all(f.done() for f in futures)
            await coalescer.stop()

    run(scenario())


def test_counters_track_submissions_and_batches():
    evaluator = RecordingEvaluator()

    async def scenario():
        with ThreadPoolExecutor(1) as pool:
            coalescer = Coalescer(evaluator, pool=pool)
            coalescer.start()
            await asyncio.gather(
                *[coalescer.submit(_query(i), f"k{i}") for i in range(5)]
            )
            await coalescer.stop()
            return coalescer

    coalescer = run(scenario())
    assert coalescer.submitted == 5
    assert coalescer.dispatched_queries == 5
    assert coalescer.dispatched_batches == len(evaluator.batches)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_batch": 0},
        {"max_queue": 0},
    ],
)
def test_invalid_parameters_raise(kwargs):
    with ThreadPoolExecutor(1) as pool:
        with pytest.raises(ValueError):
            Coalescer(RecordingEvaluator(), pool=pool, **kwargs)
