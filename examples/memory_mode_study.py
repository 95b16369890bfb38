#!/usr/bin/env python
"""Characterize a new workload the way the paper characterizes its five.

Scenario: you have an application kernel and want to know, before porting
to a KNL-like hybrid-memory machine, whether HBM will pay off.  Describe
it as a profile, put it on the two-ceiling roofline, and sweep it through
the memory configurations and thread counts.

Run:  python examples/memory_mode_study.py
"""

from repro import (
    AccessPattern,
    MemoryProfile,
    PerformanceModel,
    Phase,
    PlacementMix,
    Location,
    knl7210,
)
from repro.engine.roofline import RooflineModel
from repro.memory.dram import ddr4_archer
from repro.memory.mcdram import mcdram_archer
from repro.memory.modes import MCDRAMConfig, MemorySystem
from repro.util.units import GB


def build_profile() -> MemoryProfile:
    """A made-up stencil application: one streaming sweep plus a sparse
    halo-exchange-like random phase."""
    return MemoryProfile(
        workload="my-stencil",
        phases=(
            Phase(
                name="sweep",
                pattern=AccessPattern.SEQUENTIAL,
                traffic_bytes=200 * GB,
                flops=75e9 * 2,
                footprint_bytes=10 * GB,
            ),
            Phase(
                name="halo",
                pattern=AccessPattern.RANDOM,
                traffic_bytes=2 * GB,
                footprint_bytes=10 * GB,
                access_bytes=8,
            ),
        ),
    )


def main() -> None:
    machine = knl7210()
    profile = build_profile()

    # 1. Roofline screening: is HBM even able to help?
    roofline = RooflineModel(machine, ddr4_archer(), mcdram_archer())
    point = roofline.locate(profile)
    print(
        f"{point.name}: arithmetic intensity "
        f"{point.arithmetic_intensity:.3f} flops/byte"
    )
    print(
        f"  attainable: {point.attainable_gflops_dram:.0f} GF on DDR, "
        f"{point.attainable_gflops_hbm:.0f} GF on MCDRAM "
        f"(HBM bound: {point.hbm_speedup_bound:.2f}x)\n"
    )

    # 2. Full model: the three configurations across thread counts.
    flat = PerformanceModel(machine, MemorySystem(MCDRAMConfig.flat()))
    cache = PerformanceModel(machine, MemorySystem(MCDRAMConfig.cache()))
    combos = [
        ("DRAM", flat, PlacementMix.pure(Location.DRAM)),
        ("HBM", flat, PlacementMix.pure(Location.HBM)),
        ("Cache", cache, PlacementMix.pure(Location.DRAM_CACHED)),
    ]
    print(f"{'threads':>8}" + "".join(f"{name:>12}" for name, _, _ in combos))
    for threads in (64, 128, 192, 256):
        row = [f"{threads:>8}"]
        for _, model, mix in combos:
            run = model.evaluate(profile, mix, threads)
            row.append(f"{run.time_s * 1e3:>10.1f}ms")
        print("".join(row))
    print("\n(lower is better; note where extra hardware threads stop paying)")


if __name__ == "__main__":
    main()
