"""Whole-node compute topology."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.machine.caches import CacheGeometry
from repro.machine.core import Core
from repro.machine.mesh import Mesh2D
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.spec import MachineSpec
    from repro.memory.device import MemoryDevice


class ThreadCapacityError(ValueError):
    """A thread count beyond a node's hardware threads.

    ``exhibit_id`` is empty until an exhibit driver that caught it on
    its way out names the exhibit that asked for the threads.
    """

    def __init__(self, num_threads: int, capacity: int, detail: str) -> None:
        super().__init__(
            f"{num_threads} threads exceed the node capacity of {capacity} "
            f"({detail})"
        )
        self.num_threads = num_threads
        self.capacity = capacity
        self.exhibit_id = ""


@dataclass(frozen=True)
class ThreadPlacement:
    """How an OpenMP thread count maps onto cores.

    The paper's runs use compact-by-core placement: 64 threads = 1 per core,
    128 = 2 per core, etc.  ``active_cores`` and ``threads_per_core``
    describe the resulting shape; uneven counts put the remainder on the
    low-numbered cores (``extra_cores`` of them run one more thread).
    """

    total_threads: int
    active_cores: int
    threads_per_core: int
    extra_cores: int

    @property
    def max_threads_per_core(self) -> int:
        return self.threads_per_core + (1 if self.extra_cores else 0)


@dataclass(frozen=True)
class Machine:
    """A single node's compute side.

    Combines the tile mesh with per-core L1 geometry and exposes the
    aggregates the performance engine consumes.  Memory devices and modes
    are configured separately (:mod:`repro.memory`) and paired with a
    machine inside :class:`repro.core.configs.SystemConfig`.

    ``spec`` links back to the declarative
    :class:`~repro.machine.spec.MachineSpec` when the machine was built
    through the registry; hand-constructed machines (``spec=None``)
    default to the paper's Archer KNL memory tiers, preserving the
    historical behaviour.
    """

    name: str
    mesh: Mesh2D
    l1d: CacheGeometry
    spec: "MachineSpec | None" = None
    #: Per-instance ``num_threads -> ThreadPlacement`` memo.  Placements are
    #: frozen and derived only from the (frozen) mesh, so sharing them is
    #: safe; excluded from equality/repr like any cache.
    _placements: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("machine needs a name")

    # -- memory tiers -------------------------------------------------------
    def near_device(self) -> "MemoryDevice":
        """The fast/near memory tier (MCDRAM on KNL; NUMA node 1 in flat
        mode)."""
        if self.spec is not None:
            return self.spec.near_tier.device()
        from repro.memory.mcdram import mcdram_archer

        return mcdram_archer()

    def far_device(self) -> "MemoryDevice":
        """The capacity/far memory tier (DDR4 on KNL; NUMA node 0)."""
        if self.spec is not None:
            return self.spec.far_tier.device()
        from repro.memory.dram import ddr4_archer

        return ddr4_archer()

    @property
    def supported_memory_modes(self) -> tuple[str, ...]:
        """Memory-mode names this platform's firmware offers."""
        if self.spec is not None:
            return self.spec.supported_modes
        return ("flat", "cache", "hybrid")

    # -- counts ---------------------------------------------------------------
    # All of these are constants of the frozen mesh; the scalar model reads
    # them on every evaluate() call, so they are cached on first access.
    @cached_property
    def num_cores(self) -> int:
        return 2 * self.mesh.num_tiles

    @cached_property
    def smt_per_core(self) -> int:
        return self.mesh.tiles[0].cores[0].smt_threads

    @cached_property
    def max_threads(self) -> int:
        return self.num_cores * self.smt_per_core

    @cached_property
    def frequency_ghz(self) -> float:
        return self.mesh.tiles[0].cores[0].frequency_ghz

    @cached_property
    def reference_core(self) -> Core:
        """A representative core (all cores are homogeneous)."""
        return self.mesh.tiles[0].cores[0]

    # -- aggregates -------------------------------------------------------------
    @cached_property
    def peak_dp_gflops(self) -> float:
        """Node peak double-precision GFLOP/s (~2662 for a 7210)."""
        return sum(c.peak_dp_gflops for c in self.mesh.cores())

    @cached_property
    def total_l2_bytes(self) -> int:
        return self.mesh.total_l2_bytes

    @cached_property
    def tile_l2_bytes(self) -> int:
        return self.mesh.tiles[0].l2_capacity_bytes

    # -- thread placement ---------------------------------------------------
    def place_threads(self, num_threads: int) -> ThreadPlacement:
        """Map an OpenMP thread count to cores, compact-by-core.

        Raises if the count exceeds the node's hardware-thread capacity
        (the 7210 tops out at 256).  Placements are memoized per machine:
        the scalar path asks for the same handful of thread counts on
        every run.
        """
        cached = self._placements.get(num_threads)
        if cached is not None:
            return cached
        check_positive("num_threads", num_threads)
        if num_threads > self.max_threads:
            raise ThreadCapacityError(
                num_threads,
                self.max_threads,
                f"{self.num_cores} cores x {self.smt_per_core} hardware threads",
            )
        if num_threads <= self.num_cores:
            placement = ThreadPlacement(
                total_threads=num_threads,
                active_cores=num_threads,
                threads_per_core=1,
                extra_cores=0,
            )
        else:
            per_core, extra = divmod(num_threads, self.num_cores)
            placement = ThreadPlacement(
                total_threads=num_threads,
                active_cores=self.num_cores,
                threads_per_core=per_core,
                extra_cores=extra,
            )
        self._placements[num_threads] = placement
        return placement

    def describe(self) -> str:
        """One-paragraph summary used by the CLI."""
        return (
            f"{self.name}: {self.num_cores} cores @ {self.frequency_ghz:.1f} GHz, "
            f"{self.smt_per_core} HW threads/core ({self.max_threads} total), "
            f"{self.mesh.num_tiles} tiles x {self.tile_l2_bytes // (1 << 20)} MB L2 "
            f"({self.total_l2_bytes // (1 << 20)} MB mesh L2), "
            f"{self.mesh.cluster_mode.value} cluster mode, "
            f"peak {self.peak_dp_gflops:.0f} DP GFLOP/s"
        )


#: Historical name, kept as an alias — the class long predates the
#: machine registry and is referenced throughout the codebase.
KNLMachine = Machine
