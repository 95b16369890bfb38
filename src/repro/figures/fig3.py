"""Fig. 3: TinyMemBench dual random read latency vs block size.

Paper: three tiers — ~10 ns below 1 MB (tile L2), ~200 ns up to 64 MB,
growth beyond 128 MB (TLB misses + page walks); DRAM is 15-20 % faster
than HBM throughout, the gap peaking just above the tile L2 size.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.engine.perfmodel import PerformanceModel
from repro.engine.placement import Location
from repro.figures.common import Exhibit
from repro.machine.presets import knl7210
from repro.memory.modes import MCDRAMConfig, MemorySystem
from repro.util.ascii_plot import AsciiChart
from repro.util.tables import TextTable
from repro.util.units import KiB, MiB, GiB
from repro.workloads.tinymembench import TinyMemBench

DEFAULT_BLOCKS: tuple[int, ...] = (
    128 * KiB, 256 * KiB, 512 * KiB,
    1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB, 16 * MiB, 32 * MiB, 64 * MiB,
    128 * MiB, 256 * MiB, 512 * MiB, 1 * GiB,
)


def _label(block: int) -> str:
    if block >= GiB:
        return f"{block // GiB}G"
    if block >= MiB:
        return f"{block // MiB}M"
    return f"{block // KiB}K"


def generate(
    runner: "object | None" = None, blocks: Sequence[int] | None = None
) -> Exhibit:
    """``runner`` is ignored: the latency curve is always the knl7210's."""
    del runner
    blocks = tuple(blocks) if blocks is not None else DEFAULT_BLOCKS
    machine = knl7210()
    model = PerformanceModel(machine, MemorySystem(MCDRAMConfig.flat()))
    dram, hbm, gap = [], [], []
    for block in blocks:
        bench = TinyMemBench(block_bytes=block)
        d = bench.model_latency_ns(model, Location.DRAM)
        h = bench.model_latency_ns(model, Location.HBM)
        dram.append(d)
        hbm.append(h)
        gap.append((h / d - 1.0) * 100.0)
    table = TextTable(
        ["Block", "DRAM (ns)", "HBM (ns)", "Gap (%)"],
        title="Fig. 3: dual random read latency",
    )
    for block, d, h, g in zip(blocks, dram, hbm, gap):
        table.add_row([_label(block), f"{d:.1f}", f"{h:.1f}", f"{g:.1f}"])
    chart = AsciiChart(
        title="Fig. 3: dual random read latency (ns)",
        logx=True,
        xlabel="block size (bytes)",
    )
    chart.add_series("DRAM", [float(b) for b in blocks], dram)
    chart.add_series("HBM", [float(b) for b in blocks], hbm)
    return Exhibit(
        exhibit_id="fig3",
        title="Dual random read latency, DRAM vs HBM",
        text=table.render() + "\n\n" + chart.render(),
        data={
            "blocks": list(blocks),
            "dram_ns": dram,
            "hbm_ns": hbm,
            "gap_percent": gap,
        },
        paper_expectation=(
            "~10 ns tier below 1 MB; ~200 ns tier to 64 MB; growth beyond "
            "128 MB; DRAM 15-20% faster, gap peaking just above 1 MB"
        ),
    )
