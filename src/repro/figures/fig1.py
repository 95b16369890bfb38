"""Fig. 1: layout of the KNL memories and the tile mesh (ASCII).

The paper's Fig. 1 diagrams the mesh of tiles (two cores sharing a 1 MB
L2 each), the on-package MCDRAM and the off-package DDR4 channels.  This
generator renders the *modelled* machine, so the exhibit doubles as a
check that the machine model carries the figure's structure.
"""

from __future__ import annotations

from repro.figures.common import Exhibit
from repro.machine.presets import knl7210
from repro.machine.topology import KNLMachine
from repro.memory.dram import ddr4_archer
from repro.memory.mcdram import mcdram_archer


def render_layout(machine: KNLMachine) -> str:
    mesh = machine.mesh
    mcdram = mcdram_archer()
    dram = ddr4_archer()
    cell = "[L2 1MB]"
    rows = []
    for r in range(mesh.rows):
        row_tiles = []
        for c in range(mesh.cols):
            index = r * mesh.cols + c
            row_tiles.append(cell if index < mesh.num_tiles else " " * len(cell))
        rows.append(" ".join(row_tiles))
    grid_width = len(rows[0])
    mc = (
        f"MCDRAM {mcdram.capacity_bytes >> 30} GB "
        f"({mcdram.channels} modules, on-package)"
    )
    dr = (
        f"DDR4 {dram.capacity_bytes >> 30} GB "
        f"({dram.channels} channels, off-package)"
    )
    lines = [
        mc.center(grid_width),
        "=" * grid_width,
        *rows,
        "=" * grid_width,
        dr.center(grid_width),
        "",
        f"{mesh.num_tiles} tiles x 2 cores = {machine.num_cores} cores @ "
        f"{machine.frequency_ghz:.1f} GHz, {machine.smt_per_core} HW "
        f"threads/core; each tile: 2 cores + shared 1 MB L2; "
        f"{mesh.cluster_mode.value} cluster mode",
    ]
    return "\n".join(lines)


def generate(runner: "object | None" = None) -> Exhibit:
    """``runner`` is ignored: this exhibit does not depend on the machine."""
    del runner
    machine = knl7210()
    return Exhibit(
        exhibit_id="fig1",
        title="Layout of the memories and the tile mesh on KNL",
        text=render_layout(machine),
        data={
            "tiles": machine.mesh.num_tiles,
            "cores": machine.num_cores,
            "l2_per_tile_mb": machine.tile_l2_bytes >> 20,
            "mcdram_gb": mcdram_archer().capacity_bytes >> 30,
            "ddr_gb": ddr4_archer().capacity_bytes >> 30,
            "ddr_channels": ddr4_archer().channels,
        },
        paper_expectation=(
            "tiles of 2 cores sharing 1 MB L2 on a mesh; MCDRAM 16 GB "
            "on-package; DDR 96 GB over six DDR4 channels off-package"
        ),
    )
