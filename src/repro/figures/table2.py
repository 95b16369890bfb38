"""Table II: NUMA distances in flat vs cache mode (`numactl --hardware`)."""

from __future__ import annotations

from repro.figures.common import Exhibit
from repro.memory.modes import MCDRAMConfig, MemorySystem


def generate(runner: "object | None" = None) -> Exhibit:
    """``runner`` is ignored: this exhibit does not depend on the machine."""
    del runner
    flat = MemorySystem(MCDRAMConfig.flat())
    cache = MemorySystem(MCDRAMConfig.cache())
    flat_text = flat.numactl_hardware()
    cache_text = cache.numactl_hardware()
    text = (
        "HBM in flat mode:\n"
        f"{flat_text}\n\n"
        "HBM in cache mode:\n"
        f"{cache_text}"
    )
    return Exhibit(
        exhibit_id="table2",
        title="NUMA domain distances (numactl --hardware)",
        text=text,
        data={
            "flat_distances": flat.topology.distances,
            "flat_capacities_gb": [
                n.capacity_bytes // (1 << 30) for n in flat.topology.nodes
            ],
            "cache_distances": cache.topology.distances,
            "cache_capacities_gb": [
                n.capacity_bytes // (1 << 30) for n in cache.topology.nodes
            ],
        },
        paper_expectation=(
            "flat: nodes 0 (96 GB) / 1 (16 GB), distances 10 local, 31 "
            "remote; cache: single node 0 (96 GB)"
        ),
    )
