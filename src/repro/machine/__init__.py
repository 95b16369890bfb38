"""Machine models.

Models the compute side of hybrid-memory nodes, originally the Knights
Landing machine the paper measures (Section II): cores with SMT hardware
threads, tiles of two cores sharing an L2 slice, a 2D mesh interconnect
with a distributed MESIF tag directory, and the per-level cache
parameters that produce the latency tiers of Fig. 3.

Machines are described declaratively: :mod:`repro.machine.spec` defines
the frozen :class:`MachineSpec` schema and :mod:`repro.machine.registry`
holds every known machine (the KNL presets plus a Xeon Max and an
emulated DRAM+NVM node).  The machine model is *structural*: it knows
capacities, latencies and concurrency limits.  Timing behaviour is
computed by :mod:`repro.engine` from these parameters together with the
memory subsystem model (:mod:`repro.memory`).
"""

from repro.machine.caches import CacheGeometry, knl_l1d, knl_l2
from repro.machine.core import Core, HardwareThread
from repro.machine.tile import Tile
from repro.machine.mesh import Mesh2D, ClusterMode
from repro.machine.spec import (
    CacheLevelSpec,
    CoreSpec,
    MachineSpec,
    MemoryTierSpec,
    MeshSpec,
)
from repro.machine.topology import KNLMachine, Machine
from repro.machine.presets import knl7210, knl7250
from repro.machine import registry

__all__ = [
    "CacheGeometry",
    "knl_l1d",
    "knl_l2",
    "Core",
    "HardwareThread",
    "Tile",
    "Mesh2D",
    "ClusterMode",
    "CacheLevelSpec",
    "CoreSpec",
    "MachineSpec",
    "MemoryTierSpec",
    "MeshSpec",
    "Machine",
    "KNLMachine",
    "knl7210",
    "knl7250",
    "registry",
]
