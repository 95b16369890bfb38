"""``repro serve --replicas N`` stops its whole fleet on SIGTERM.

SIGTERM is what service managers and container runtimes send; the
router must treat it like Ctrl-C — stop the fleet — instead of exiting
alone and leaving its replica processes orphaned.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads /proc for child pids"
)


def _stat(pid: int) -> list[str] | None:
    """The fields of ``/proc/<pid>/stat`` after the command name."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return text.rsplit(")", 1)[1].split()


def _children(pid: int) -> list[int]:
    children = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _stat(int(entry.name))
            if fields is not None and int(fields[1]) == pid:
                children.append(int(entry.name))
    return children


def _alive(pid: int) -> bool:
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z"


def test_sigterm_stops_every_replica(tmp_path):
    port_file = tmp_path / "address"
    router = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--replicas", "2",
            "--port", "0", "--port-file", str(port_file),
        ],
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    replicas: list[int] = []
    try:
        deadline = time.monotonic() + 120.0
        while not port_file.exists():
            assert router.poll() is None, "the router exited during boot"
            assert time.monotonic() < deadline, "the fleet never listened"
            time.sleep(0.05)
        replicas = _children(router.pid)
        assert len(replicas) == 2
        router.send_signal(signal.SIGTERM)
        router.wait(timeout=30.0)
        deadline = time.monotonic() + 5.0
        while any(map(_alive, replicas)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in replicas if _alive(pid)] == []
    finally:
        for pid in [router.pid, *replicas]:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        router.wait(timeout=10.0)
