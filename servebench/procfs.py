"""Process-tree and host accounting read from ``/proc``.

The server under test is a tree: ``repro serve --replicas N`` is a
router process whose replicas are its children.  Memory and CPU are
summed over every process of the tree, because reading only the root
pid misses the replicas entirely.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as handle:
            return handle.read()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None


def children(pid: int) -> list[int]:
    """Direct children of ``pid`` (every thread's ``children`` file)."""
    found: list[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except (FileNotFoundError, ProcessLookupError):
        return found
    for tid in tids:
        text = _read(f"/proc/{pid}/task/{tid}/children")
        if text:
            found.extend(int(token) for token in text.split())
    return found


def tree(pid: int) -> list[int]:
    """``pid`` and all of its live descendants."""
    pids, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        if _read(f"/proc/{current}/stat") is None:
            continue
        pids.append(current)
        frontier.extend(children(current))
    return pids


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    text = _read(f"/proc/{pid}/stat")
    if text is None:
        return False
    return text[text.rindex(")") + 2] != "Z"


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        text = _read(f"/proc/{pid}/stat")
        if text is None:
            continue
        fields = text[text.rindex(")") + 2 :].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _CLK_TCK


def peak_rss_mib(pids: list[int]) -> float:
    """Sum of each process's peak resident set (``VmHWM``), in MiB."""
    total_kib = 0
    for pid in pids:
        text = _read(f"/proc/{pid}/status")
        if text is None:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
                break
    return total_kib / 1024.0


@dataclass(frozen=True)
class HostTimes:
    """Aggregate ``cpu`` line of ``/proc/stat`` (clock ticks)."""

    total: int
    steal: int

    @classmethod
    def read(cls) -> "HostTimes":
        text = _read("/proc/stat") or "cpu 0"
        fields = [int(v) for v in text.splitlines()[0].split()[1:]]
        # user nice system idle iowait irq softirq steal [guest guest_nice];
        # guest time is already counted inside user/nice.
        return cls(total=sum(fields[:8]), steal=fields[7] if len(fields) > 7 else 0)

    def steal_share_since(self, earlier: "HostTimes") -> float:
        elapsed = self.total - earlier.total
        return (self.steal - earlier.steal) / elapsed if elapsed > 0 else 0.0


def dir_mib(path: str) -> float:
    """Total size of the regular files under ``path``, in MiB."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except FileNotFoundError:
                pass
    return total / (1024.0 * 1024.0)
