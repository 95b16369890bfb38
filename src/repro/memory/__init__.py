"""Hybrid memory subsystem model.

Models the two memory technologies of the KNL node and everything the paper
configures around them:

* :mod:`repro.memory.device` / :mod:`dram` / :mod:`mcdram` — the DDR4 and
  MCDRAM devices with their measured bandwidth and latency characteristics.
* :mod:`repro.memory.modes` — flat / cache / hybrid MCDRAM modes and the
  NUMA topology each one exposes.
* :mod:`repro.memory.numa` — NUMA nodes, distance matrices and capacity
  accounting (`numactl --hardware` view).
* :mod:`repro.memory.policy` — placement policies (membind / preferred /
  interleave / default-local), mirroring numactl semantics.
* :mod:`repro.memory.allocator` — a memkind-style heap allocator over the
  NUMA topology, used for the fine-grained-placement extension study.
* :mod:`repro.memory.mcdram_cache` — the direct-mapped memory-side cache
  model responsible for the cache-mode behaviour of Figs. 2 and 4.
* :mod:`repro.memory.tlb` — the TLB/page-walk model behind the Fig. 3
  latency tiers beyond 128 MB.
"""

from repro.memory.device import MemoryDevice
from repro.memory.dram import ddr4_archer
from repro.memory.mcdram import mcdram_archer
from repro.memory.modes import MemoryMode, MCDRAMConfig, MemorySystem
from repro.memory.numa import NUMANode, NUMATopology, OutOfNodeMemory
from repro.memory.policy import (
    PlacementPolicy,
    Membind,
    Preferred,
    Interleave,
    DefaultLocal,
)
from repro.memory.allocator import Kind, Allocation, HeapAllocator, AllocationError
from repro.memory.mcdram_cache import MCDRAMCacheModel
from repro.memory.migration import (
    MigrationOutcome,
    MigrationPolicy,
    simulate_migration,
    uniform_page_weights,
    zipfian_page_weights,
)
from repro.memory.tlb import TLBModel

__all__ = [
    "MemoryDevice",
    "ddr4_archer",
    "mcdram_archer",
    "MemoryMode",
    "MCDRAMConfig",
    "MemorySystem",
    "NUMANode",
    "NUMATopology",
    "OutOfNodeMemory",
    "PlacementPolicy",
    "Membind",
    "Preferred",
    "Interleave",
    "DefaultLocal",
    "Kind",
    "Allocation",
    "HeapAllocator",
    "AllocationError",
    "MCDRAMCacheModel",
    "MigrationOutcome",
    "MigrationPolicy",
    "simulate_migration",
    "uniform_page_weights",
    "zipfian_page_weights",
    "TLBModel",
]
