"""Event-simulator tests: the analytic engine's two regimes must emerge
from queueing with no Little's-law shortcut."""

import pytest

from repro.engine.eventsim import MemoryEventSimulator
from repro.engine.littles_law import littles_law_bandwidth
from repro.memory.dram import ddr4_archer
from repro.memory.mcdram import mcdram_archer


class TestLatencyBoundRegime:
    def test_low_concurrency_bandwidth_matches_littles_law(self):
        """One outstanding request per thread, few threads: achieved
        bandwidth = outstanding * line / latency."""
        sim = MemoryEventSimulator(ddr4_archer(), sequential=False)
        result = sim.run(threads=4, mlp=1, requests_per_thread=4000, seed=1)
        predicted = littles_law_bandwidth(4.0, result.mean_latency_ns)
        assert result.bandwidth_bytes_per_s == pytest.approx(predicted, rel=0.05)

    def test_unloaded_latency_close_to_idle(self):
        sim = MemoryEventSimulator(ddr4_archer(), sequential=False)
        result = sim.run(threads=1, mlp=1, requests_per_thread=2000, seed=2)
        assert result.mean_latency_ns == pytest.approx(
            ddr4_archer().idle_latency_ns, rel=0.05
        )

    def test_hbm_slower_than_dram_at_low_concurrency(self):
        """The paper's latency story, from queueing alone."""
        dram = MemoryEventSimulator(ddr4_archer(), sequential=False).run(
            threads=8, mlp=2, requests_per_thread=2000, seed=3
        )
        hbm = MemoryEventSimulator(mcdram_archer(), sequential=False).run(
            threads=8, mlp=2, requests_per_thread=2000, seed=3
        )
        assert dram.elapsed_ns < hbm.elapsed_ns


class TestBandwidthBoundRegime:
    def test_high_concurrency_saturates_device(self):
        sim = MemoryEventSimulator(ddr4_archer(), sequential=True)
        result = sim.run(threads=64, mlp=16, requests_per_thread=400, seed=4)
        assert result.bandwidth_bytes_per_s == pytest.approx(
            ddr4_archer().peak_bandwidth, rel=0.05
        )

    def test_hbm_wins_at_high_concurrency(self):
        """The paper's bandwidth story, from queueing alone."""
        dram = MemoryEventSimulator(ddr4_archer(), sequential=True).run(
            threads=64, mlp=16, requests_per_thread=300, seed=5
        )
        hbm = MemoryEventSimulator(mcdram_archer(), sequential=True).run(
            threads=64, mlp=16, requests_per_thread=300, seed=5
        )
        assert hbm.elapsed_ns < dram.elapsed_ns / 3.0

    def test_latency_inflates_under_load(self):
        """Queueing delay appears as the device saturates — the loaded-
        latency phenomenon the analytic model approximates."""
        sim = MemoryEventSimulator(ddr4_archer(), sequential=True)
        light = sim.run(threads=4, mlp=1, requests_per_thread=1000, seed=6)
        heavy = sim.run(threads=64, mlp=16, requests_per_thread=200, seed=6)
        assert heavy.mean_latency_ns > 1.5 * light.mean_latency_ns


class TestOptimizedBitIdentity:
    """The optimized core is a twin of ``_simulate_reference``: every
    field of the result must compare *equal* (bit-identical floats), on
    both devices and both access patterns."""

    MATRIX = [
        # (threads, mlp, requests_per_thread) spanning priming-only runs,
        # latency-bound runs and high occupancy (2048 in flight).
        (1, 1.0, 1),
        (2, 2.5, 3),
        (7, 1.0, 50),
        (16, 8.0, 50),
        (64, 8.0, 60),
        (128, 16.0, 40),
    ]

    @pytest.mark.parametrize("sequential", [True, False])
    @pytest.mark.parametrize("device", [ddr4_archer, mcdram_archer])
    def test_dispatch_matches_reference(self, device, sequential):
        sim = MemoryEventSimulator(device(), sequential=sequential)
        for threads, mlp, rpt in self.MATRIX:
            for seed in (1, 5):
                kw = dict(
                    threads=threads,
                    mlp=mlp,
                    requests_per_thread=rpt,
                    seed=seed,
                )
                assert sim._simulate(**kw) == sim._simulate_reference(**kw), kw


class TestPrimingFirstRequests:
    """Regression for the priming branch: a priming request starts the
    moment its channel frees up (channels start free at t=0), so the
    dead ``start if start > 0.0 else 0.0`` guard is gone and the first
    request of a single-thread run completes after exactly one service
    plus the wire delay."""

    def test_single_request_latency_is_service_plus_wire(self):
        sim = MemoryEventSimulator(ddr4_archer(), sequential=False)
        result = sim.run(threads=1, mlp=1, requests_per_thread=1, seed=9)
        assert result.requests == 1
        assert result.elapsed_ns == sim.service_ns + sim.wire_ns
        assert result.mean_latency_ns == sim.service_ns + sim.wire_ns

    def test_priming_only_runs_match_reference(self):
        """Runs that never leave the priming phase (mlp >= requests)."""
        for device in (ddr4_archer, mcdram_archer):
            sim = MemoryEventSimulator(device(), sequential=True)
            for threads in (1, 3, 64):
                kw = dict(
                    threads=threads, mlp=4.0, requests_per_thread=2, seed=11
                )
                assert sim._simulate(**kw) == sim._simulate_reference(**kw)


class TestConcurrencyScaling:
    def test_bandwidth_monotone_in_mlp_until_saturation(self):
        sim = MemoryEventSimulator(mcdram_archer(), sequential=True)
        bws = [
            sim.run(threads=64, mlp=m, requests_per_thread=200, seed=7)
            .bandwidth_bytes_per_s
            for m in (1, 2, 4, 8, 16)
        ]
        assert bws == sorted(bws)
        # mlp=16 sits right at the bandwidth-delay product; random channel
        # assignment leaves ~10-15 % instantaneous imbalance, so expect
        # >= 80 % of peak rather than full saturation.
        assert bws[-1] >= 0.8 * mcdram_archer().peak_bandwidth

    def test_smt_story_emerges(self):
        """The Fig. 5 mechanism: at prefetcher-MLP 13, one thread per core
        leaves MCDRAM under-supplied; doubling the windows recovers it."""
        sim = MemoryEventSimulator(mcdram_archer(), sequential=True)
        one = sim.run(threads=64, mlp=13, requests_per_thread=300, seed=8)
        two = sim.run(threads=128, mlp=13, requests_per_thread=300, seed=8)
        gain = two.bandwidth_bytes_per_s / one.bandwidth_bytes_per_s
        assert 1.05 < gain < 1.45

    def test_validation(self):
        sim = MemoryEventSimulator(ddr4_archer())
        with pytest.raises(ValueError):
            sim.run(threads=0, mlp=1, requests_per_thread=10)
