"""Metamorphic properties: perturb the model, predict the direction.

Instead of pinning absolute numbers, each property states how an output
must *move* when an input is transformed — double a footprint and cache
hit rates cannot rise; derate the MCDRAM device and streaming cannot get
faster; swap the two devices and the HBM/DRAM ordering must flip; grow a
bind past its node and the run must become infeasible.  Hypothesis
drives the transformations under the pinned ``repro`` profile
(derandomized — see ``tests/conftest.py``), and the full checker rides
along on every generated cell.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.checks.checker import CheckingRunner
from repro.core.configs import ConfigName
from repro.engine.perfmodel import PerformanceModel
from repro.engine.placement import Location, PlacementMix
from repro.machine.presets import knl7210
from repro.memory.dram import ddr4_archer
from repro.memory.mcdram import mcdram_archer
from repro.memory.modes import MCDRAMConfig, MemorySystem
from repro.memory.tlb import TLBModel
from repro.workloads.registry import FROM_GB

pytestmark = pytest.mark.metamorphic

GIB = 1 << 30


# -- the checker holds across the whole input domain --------------------------


@given(
    workload=st.sampled_from(sorted(FROM_GB)),
    size_gb=st.floats(0.5, 4.0),
    config=st.sampled_from(list(ConfigName)),
    threads=st.sampled_from([64, 128, 192, 256]),
)
def test_checker_accepts_any_in_domain_cell(workload, size_gb, config, threads):
    # Raise-mode checking: any violation fails the property immediately.
    runner = CheckingRunner(mode="raise")
    record = runner.run(FROM_GB[workload](size_gb), config, threads)
    assert runner.runs_checked == 1
    if record.metric is not None:
        assert record.metric > 0


# -- footprint growth ---------------------------------------------------------


@given(
    footprint=st.integers(1 << 20, 64 * GIB),
    pattern=st.sampled_from(["sequential", "random"]),
)
def test_doubling_footprint_never_raises_cache_hit_rate(footprint, pattern):
    cache = MemorySystem(MCDRAMConfig.cache()).cache_model
    smaller = cache.hit_rate(footprint, pattern)
    larger = cache.hit_rate(2 * footprint, pattern)
    assert 0.0 <= larger <= smaller <= 1.0


@given(footprint=st.integers(1 << 20, 64 * GIB))
def test_doubling_footprint_never_lowers_tlb_miss_rates(footprint):
    tlb = TLBModel()
    for rate in (tlb.l1_miss_rate, tlb.l2_miss_rate):
        assert 0.0 <= rate(footprint) <= rate(2 * footprint) <= 1.0
    # Walks can never outnumber L1 misses: the L2 filters the L1 stream.
    assert tlb.l2_miss_rate(footprint) <= tlb.l1_miss_rate(footprint)
    assert 0.0 <= tlb.walk_depth(footprint) <= tlb.walk_levels


# -- device perturbations -----------------------------------------------------


def _time_ns(memory, mix, workload_name="minife", size_gb=1.0, threads=64):
    model = PerformanceModel(knl7210(), memory)
    profile = FROM_GB[workload_name](size_gb).profile()
    return model.evaluate(profile, mix, threads).time_ns


@given(factor=st.floats(0.2, 0.9))
def test_derating_mcdram_bandwidth_never_speeds_up_hbm_runs(factor):
    device = mcdram_archer()
    derated = dataclasses.replace(
        device,
        peak_bandwidth=device.peak_bandwidth * factor,
        random_bandwidth_cap=device.random_bandwidth_cap * factor,
    )
    baseline = _time_ns(
        MemorySystem(MCDRAMConfig.flat()), PlacementMix.pure(Location.HBM)
    )
    slowed = _time_ns(
        MemorySystem(MCDRAMConfig.flat(), mcdram=derated),
        PlacementMix.pure(Location.HBM),
    )
    assert slowed >= baseline * (1 - 1e-9)


@given(threads=st.sampled_from([64, 128, 256]))
def test_swapping_devices_flips_the_streaming_ordering(threads):
    mix_hbm = PlacementMix.pure(Location.HBM)
    mix_dram = PlacementMix.pure(Location.DRAM)
    normal = MemorySystem(MCDRAMConfig.flat())
    assert _time_ns(normal, mix_hbm, threads=threads) <= _time_ns(
        normal, mix_dram, threads=threads
    )
    # Put the DDR4 device behind the "HBM" node and vice versa: the
    # streaming advantage must follow the device, not the label.
    swapped = MemorySystem(
        MCDRAMConfig.flat(),
        dram=dataclasses.replace(
            mcdram_archer(), capacity_bytes=ddr4_archer().capacity_bytes
        ),
        mcdram=dataclasses.replace(
            ddr4_archer(), capacity_bytes=mcdram_archer().capacity_bytes
        ),
    )
    assert _time_ns(swapped, mix_dram, threads=threads) <= _time_ns(
        swapped, mix_hbm, threads=threads
    )


# -- capacity boundaries ------------------------------------------------------


# DGEMM's footprint tracks the requested size near-exactly (GUPS snaps
# to power-of-two tables), so the 16 GiB = 17.18 GB boundary is sharp.
@given(size_gb=st.floats(17.5, 90.0))
def test_over_capacity_hbm_bind_is_always_infeasible(size_gb):
    runner = CheckingRunner(mode="raise")
    record = runner.run(FROM_GB["dgemm"](size_gb), ConfigName.HBM, 64)
    assert record.metric is None
    assert record.infeasible_reason is not None


@given(size_gb=st.floats(0.5, 15.0))
def test_within_capacity_hbm_bind_is_always_feasible(size_gb):
    runner = CheckingRunner(mode="raise")
    record = runner.run(FROM_GB["dgemm"](size_gb), ConfigName.HBM, 64)
    assert record.metric is not None
