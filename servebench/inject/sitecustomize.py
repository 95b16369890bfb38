"""Layer tracer for the benchmark's traced pass.

Python imports ``sitecustomize`` at start-up from the first directory on
its path that has one.  The benchmark puts this directory on the
``PYTHONPATH`` of the server it spawns — and ``repro serve --replicas``
hands its environment to every replica — so each server process (router
and replicas included) installs the tracer before ``repro`` runs.
Nothing happens unless ``SERVEBENCH_TRACE_DIR`` is set.

The tracer wraps named public functions of the layers and keeps, per
function: calls, inclusive time, self time (inclusive minus the time of
wrapped callees) and items handled; per (caller, callee) pair: calls and
inclusive time.  Coroutines are timed step by step, so their self time
is time on the event loop, not time spent waiting; their inclusive time
is first step to completion.  Each process serves its cumulative
snapshot as JSON on a loopback port it records in
``$SERVEBENCH_TRACE_DIR/proc-<pid>.json``.
"""

from __future__ import annotations

import functools
import json
import os
import socket
import sys
import threading
import time
import traceback

TRACE_ENV = "SERVEBENCH_TRACE_DIR"

_clock = time.perf_counter_ns


class Tracer:
    """Aggregates per-function timings across all threads of a process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: name -> [calls, total_ns, self_ns, items, items_x_total_ns]
        self.stats: dict[str, list[int]] = {}
        #: (caller, callee) -> [calls, total_ns]
        self.edges: dict[tuple[str, str], list[int]] = {}

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(
        self, name: str, caller: str | None, total: int, self_ns: int, items: int
    ) -> None:
        with self._lock:
            entry = self.stats.get(name)
            if entry is None:
                entry = self.stats[name] = [0, 0, 0, 0, 0]
            entry[0] += 1
            entry[1] += total
            entry[2] += self_ns
            entry[3] += items
            entry[4] += items * total
            if caller is not None:
                edge = self.edges.get((caller, name))
                if edge is None:
                    edge = self.edges[(caller, name)] = [0, 0]
                edge[0] += 1
                edge[1] += total

    def wrap(self, name: str, fn, items_arg: int | None = None):
        """A synchronous wrapper; ``items_arg`` is the positional index of
        a sequence whose length counts as the call's items."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [name, 0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total = _clock() - start
                stack.pop()
                caller = None
                if stack:
                    stack[-1][1] += total
                    caller = stack[-1][0]
                items = 0
                if items_arg is not None and len(args) > items_arg:
                    items = len(args[items_arg])
                tracer.record(name, caller, total, total - frame[1], items)

        return wrapper

    def wrap_async(self, name: str, fn):
        """A coroutine-function wrapper timing each step of the coroutine."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            return await _Stepped(tracer, name, fn(*args, **kwargs))

        return wrapper

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "pid": os.getpid(),
                "role": _role(sys.argv),
                "stats": {k: list(v) for k, v in self.stats.items()},
                "edges": {f"{a}>{b}": list(v) for (a, b), v in self.edges.items()},
            }


class _Stepped:
    """Awaitable driving a coroutine while timing every step."""

    def __init__(self, tracer: Tracer, name: str, coro) -> None:
        self.tracer, self.name, self.coro = tracer, name, coro

    def __await__(self):
        tracer, name, coro = self.tracer, self.name, self.coro
        first = caller = None
        busy = child = 0
        value, error = None, None
        while True:
            stack = tracer._stack()
            if first is None:
                first = _clock()
                caller = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = _clock()
            finished = False
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                finished, result = True, stop.value
            except BaseException:
                finished = True
                raise
            finally:
                step = _clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += step
                busy += step
                child += frame[1]
                if finished:
                    tracer.record(name, caller, _clock() - first, busy - child, 0)
            if finished:
                return result
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # delivered to the coroutine
                value, error = None, exc


def _role(argv: list[str]) -> str:
    def flag(name: str) -> str:
        return argv[argv.index(name) + 1] if name in argv[:-1] else ""

    if flag("--replica-id"):
        return "replica"
    if flag("--replicas") not in ("", "1"):
        return "router"
    return "service"


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points (class attributes, so every caller —
    and every instance created later — goes through the wrapper)."""
    from repro.api import facade, types
    from repro.core import executor, runner
    from repro.engine import batch, energy, table_cache, warmup
    from repro.plan import planner
    from repro.serve import cache, client, coalescer, service, shard

    def method(cls, attr: str, items_arg: int | None = None) -> None:
        setattr(
            cls, attr,
            tracer.wrap(f"{cls.__name__}.{attr}", getattr(cls, attr), items_arg),
        )

    def coroutine(cls, attr: str) -> None:
        setattr(
            cls, attr,
            tracer.wrap_async(f"{cls.__name__}.{attr}", getattr(cls, attr)),
        )

    Service = service.PredictionService
    Service.parse_queries = staticmethod(
        tracer.wrap("PredictionService.parse_queries", Service.parse_queries)
    )
    coroutine(Service, "handle_predict")
    coroutine(Service, "handle_plan")
    coroutine(shard.ShardRouter, "handle_predict")
    method(facade.Predictor, "resolve")
    method(facade.Predictor, "cache_key")
    method(facade.Predictor, "predict_many", items_arg=1)
    method(types.PredictionResult, "to_dict")
    method(cache.TTLCache, "get")
    method(client.ServeClient, "predict_many", items_arg=1)
    method(executor.SweepExecutor, "cache_key")
    method(executor.SweepExecutor, "run_cells", items_arg=1)
    method(runner.ExperimentRunner, "run")
    method(batch.BatchEvaluator, "evaluate", items_arg=1)
    method(table_cache.TableCache, "load")
    method(table_cache.TableCache, "store")
    method(energy.EnergyModel, "estimate_record")
    method(planner.CapacityPlanner, "plan")
    planner.check_plan = tracer.wrap("check_plan", planner.check_plan)
    warmup.prewarm_tables = tracer.wrap("prewarm_tables", warmup.prewarm_tables)

    submit = coalescer.Coalescer.submit

    @functools.wraps(submit)
    def timed_submit(self, query, key):
        # Submission to resolution: queueing, batch window and the
        # batch's evaluation (the analysis subtracts the latter).
        started = _clock()
        future = submit(self, query, key)
        future.add_done_callback(
            lambda _: tracer.record(
                "Coalescer.wait", None, _clock() - started, 0, 0
            )
        )
        return future

    coalescer.Coalescer.submit = timed_submit


def _serve_snapshots(tracer: Tracer, directory: str) -> None:
    """Answer each loopback connection with one JSON snapshot."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    record = os.path.join(directory, f"proc-{os.getpid()}.json")
    with open(record + ".tmp", "w", encoding="utf-8") as handle:
        json.dump({"pid": os.getpid(), "port": listener.getsockname()[1]}, handle)
    os.replace(record + ".tmp", record)

    def loop() -> None:
        while True:
            connection, _ = listener.accept()
            with connection:
                connection.sendall(json.dumps(tracer.snapshot()).encode("utf-8"))

    threading.Thread(target=loop, name="servebench-trace", daemon=True).start()


def _start(directory: str) -> None:
    try:
        tracer = Tracer()
        install(tracer)
        _serve_snapshots(tracer, directory)
    except Exception:
        with open(
            os.path.join(directory, f"error-{os.getpid()}.txt"), "w", encoding="utf-8"
        ) as handle:
            handle.write(traceback.format_exc())


if os.environ.get(TRACE_ENV):
    _start(os.environ[TRACE_ENV])
