"""Launch, probe and stop the ``repro serve`` process tree under test."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from servebench import procfs

#: Directory (under ``servebench/``) whose ``sitecustomize.py`` installs
#: the layer tracer in every Python process that has it on its path.
INJECT_DIR = Path(__file__).resolve().parent / "inject"

#: Environment variable naming the traced pass's output directory.
TRACE_ENV = "SERVEBENCH_TRACE_DIR"


class ServerError(RuntimeError):
    """The server tree failed to start, answer or stop."""


class ServerProcess:
    """One ``repro serve --prewarm`` process tree on a fresh table cache.

    ``replicas > 1`` boots the sharded deployment (router + replica
    subprocesses).  ``cpus`` pins the tree (replicas inherit it) to those
    CPUs.  Every path the tree writes — table cache, port file,
    temporary files, log — lives under ``workdir``.
    """

    def __init__(
        self,
        root: Path,
        workdir: Path,
        *,
        replicas: int = 1,
        trace_dir: Path | None = None,
        cpus: set[int] | None = None,
    ) -> None:
        self.root = root
        self.workdir = workdir
        self.replicas = replicas
        self.trace_dir = trace_dir
        self.cpus = cpus
        self.tables_dir = workdir / "tables"
        self.port_file = workdir / "address"
        self.proc: subprocess.Popen[bytes] | None = None
        self.spawned_at = 0.0
        self._known_pids: set[int] = set()

    def argv(self) -> list[str]:
        argv = [
            sys.executable, "-m", "repro",
            "--table-cache", str(self.tables_dir),
            "serve",
            "--host", "127.0.0.1",
            "--port", "0",
            "--port-file", str(self.port_file),
            "--prewarm",
        ]
        if self.replicas > 1:
            argv += ["--replicas", str(self.replicas)]
        return argv

    def env(self) -> dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.pop(TRACE_ENV, None)
        path = [str(self.root / "src")]
        if self.trace_dir is not None:
            path.append(str(INJECT_DIR))
            env[TRACE_ENV] = str(self.trace_dir)
        env["PYTHONPATH"] = os.pathsep.join(path)
        env["TMPDIR"] = str(self.workdir / "tmp")
        return env

    def start(self) -> None:
        """Spawn the tree; :attr:`spawned_at` marks the set-up clock's zero."""
        (self.workdir / "tmp").mkdir(parents=True, exist_ok=True)
        self.port_file.unlink(missing_ok=True)
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        log = open(self.workdir / "server.log", "wb")
        try:
            self.spawned_at = time.perf_counter()
            self.proc = subprocess.Popen(
                self.argv(),
                cwd=self.root,
                env=self.env(),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
                preexec_fn=self._pin if self.cpus else None,
            )
        finally:
            log.close()

    def _pin(self) -> None:
        os.sched_setaffinity(0, self.cpus)

    def wait_address(self, timeout_s: float = 120.0) -> tuple[str, int]:
        """Poll the port file the CLI writes once the tree listens."""
        assert self.proc is not None
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise ServerError(
                    f"server exited with code {self.proc.returncode}; see "
                    f"{self.workdir / 'server.log'}"
                )
            try:
                text = self.port_file.read_text(encoding="utf-8")
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                host, port = text.split()
                self._known_pids.update(self.pids())
                return host, int(port)
            time.sleep(0.002)
        raise ServerError(f"server did not listen within {timeout_s:g}s")

    def pids(self) -> list[int]:
        """Every live process of the tree (root first)."""
        if self.proc is None or self.proc.poll() is not None:
            return []
        return procfs.tree(self.proc.pid)

    def stop(self) -> None:
        """SIGINT (graceful drain), then SIGKILL the whole process group; wait
        until every process the tree ever had has exited."""
        proc = self.proc
        if proc is None:
            return
        self._known_pids.update(self.pids())
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=30.0)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            # Also when a SIGTERM to the benchmark cuts the drain short.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait(timeout=30.0)
        deadline = time.monotonic() + 30.0
        for pid in self._known_pids - {proc.pid}:
            while procfs.alive(pid) and time.monotonic() < deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    break
                time.sleep(0.01)
        self.proc = None
