"""Run a prediction service on a background thread (tests, benches, CLI).

:class:`ServerThread` owns a private event loop on a daemon thread,
boots the service + HTTP front end there, and exposes the bound address
to the caller.  ``stop()`` performs the same graceful drain the CLI
server does on SIGINT.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any

from repro.serve.config import ServiceConfig
from repro.serve.http import HttpServer

__all__ = ["ServerThread"]


class ServerThread:
    """A fully-booted server on its own thread and event loop."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        service: Any = None,
        host: str = "127.0.0.1",
        port: int = 0,
        startup_timeout_s: float = 30.0,
    ) -> None:
        # Any object with the PredictionService protocol surface (async
        # start/stop, healthz/metrics/version/handle_predict, a
        # ``metrics`` registry) can be hosted — the shard router
        # (:mod:`repro.serve.shard`) rides the same harness.
        if service is not None and config is not None:
            raise ValueError("pass either a config or a prebuilt service")
        if service is None:
            from repro.serve.service import PredictionService

            service = PredictionService(config)
        self.service = service
        self.server = HttpServer(self.service, host=host, port=port)
        self.startup_timeout_s = startup_timeout_s
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Boot the loop, service and listener; returns the bound
        address."""
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(self.startup_timeout_s):
            raise RuntimeError("server failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self.host, self.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._boot())
        except BaseException as exc:  # startup failed: surface to caller
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            # After a graceful stop there is nothing left; after kill()
            # the coalescer's dispatcher is still pending — cancel it
            # locally (the crash already happened as far as peers are
            # concerned) so loop.close() does not warn.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.wait(pending, timeout=5.0)
                )
            loop.close()

    async def _boot(self) -> None:
        await self.service.start()
        await self.server.start()

    def stop(self, *, drain: bool = True) -> None:
        """Graceful shutdown from any thread; joins the loop thread."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self._shutdown(drain=drain), loop
        )
        future.result(timeout=60.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30.0)
        self._loop = None
        self._thread = None

    def kill(self) -> None:
        """Crash-stop from any thread: abort the listener and every live
        connection, then stop the loop — **no** drain, no service
        shutdown, exactly the wreckage a SIGKILL leaves behind.  The
        fault-injection harness uses this to prove failover; production
        code wants :meth:`stop`.
        """
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        asyncio.run_coroutine_threadsafe(self.server.abort(), loop).result(
            timeout=10.0
        )
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)
        self._loop = None
        self._thread = None

    async def _shutdown(self, *, drain: bool) -> None:
        await self.server.stop()
        await self.service.stop(drain=drain)

    def run_coroutine(self, coro: Any) -> Any:
        """Execute a coroutine on the server loop (test hook)."""
        assert self._loop is not None
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            timeout=60.0
        )

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
