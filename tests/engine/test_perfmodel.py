"""Performance model tests: the paper's hardware characterization must
fall out of the engine."""

import pytest

from repro.engine.calibration import PAPER_CHARACTERIZATION as P
from repro.engine.perfmodel import PerformanceModel
from repro.engine.placement import Location, PlacementMix
from repro.engine.profilephase import AccessPattern, MemoryProfile, Phase
from repro.util.units import GB, GiB


def stream_profile(size_gb: float = 4.0) -> MemoryProfile:
    return MemoryProfile(
        "stream",
        (
            Phase(
                name="triad",
                pattern=AccessPattern.SEQUENTIAL,
                traffic_bytes=size_gb * GB,
                footprint_bytes=int(size_gb * GB),
            ),
        ),
    )


def random_profile(footprint_gb: float = 8.0, mlp: float = 2.0) -> MemoryProfile:
    return MemoryProfile(
        "rand",
        (
            Phase(
                name="chase",
                pattern=AccessPattern.RANDOM,
                traffic_bytes=1e8,
                footprint_bytes=int(footprint_gb * GB),
                access_bytes=8,
                mlp_per_thread=mlp,
            ),
        ),
    )


def achieved_bw(model, mix, threads=64, profile=None):
    run = model.evaluate(profile or stream_profile(), mix, threads)
    return run.phase_results[0].achieved_bandwidth


class TestStreamCalibration:
    def test_dram_77(self, flat_model):
        bw = achieved_bw(flat_model, PlacementMix.pure(Location.DRAM))
        assert bw == pytest.approx(P.dram_stream_gbs * 1e9, rel=0.01)

    def test_hbm_330(self, flat_model):
        bw = achieved_bw(flat_model, PlacementMix.pure(Location.HBM))
        assert bw == pytest.approx(P.hbm_stream_gbs * 1e9, rel=0.01)

    def test_hbm_smt_reaches_420(self, flat_model):
        bw = achieved_bw(flat_model, PlacementMix.pure(Location.HBM), threads=128)
        assert bw == pytest.approx(P.hbm_stream_max_gbs * 1e9, rel=0.01)

    def test_dram_smt_flat(self, flat_model):
        one = achieved_bw(flat_model, PlacementMix.pure(Location.DRAM), 64)
        four = achieved_bw(flat_model, PlacementMix.pure(Location.DRAM), 256)
        assert four / one < 1.05

    def test_cache_mode_260_at_8gb(self, cache_model_pm):
        bw = achieved_bw(
            cache_model_pm,
            PlacementMix.pure(Location.DRAM_CACHED),
            profile=stream_profile(8.0),
        )
        assert bw == pytest.approx(P.cache_peak_gbs * 1e9, rel=0.03)


class TestLocationChecks:
    def test_hbm_requires_flat_mode(self, cache_model_pm):
        with pytest.raises(ValueError, match="flat"):
            cache_model_pm.evaluate(
                stream_profile(), PlacementMix.pure(Location.HBM), 64
            )

    def test_cached_requires_cache_mode(self, flat_model):
        with pytest.raises(ValueError, match="flat mode"):
            flat_model.evaluate(
                stream_profile(), PlacementMix.pure(Location.DRAM_CACHED), 64
            )

    def test_plain_dram_invalid_in_cache_mode(self, cache_model_pm):
        with pytest.raises(ValueError, match="DRAM_CACHED"):
            cache_model_pm.evaluate(
                stream_profile(), PlacementMix.pure(Location.DRAM), 64
            )


class TestRandomPath:
    def test_dram_beats_hbm_at_one_thread_per_core(self, flat_model):
        """The paper's central latency-bound result."""
        dram = flat_model.evaluate(
            random_profile(), PlacementMix.pure(Location.DRAM), 64
        )
        hbm = flat_model.evaluate(
            random_profile(), PlacementMix.pure(Location.HBM), 64
        )
        assert dram.time_ns < hbm.time_ns

    def test_hbm_latency_gap_15_to_20_percent(self, flat_model):
        for gb in (1, 8, 32):
            d = flat_model.random_latency_ns(Location.DRAM, gb * GB)
            h = flat_model.random_latency_ns(Location.HBM, gb * GB)
            assert P.latency_gap_min - 0.02 <= h / d - 1 <= P.latency_gap_max + 0.02

    def test_hardware_threads_help_random(self, flat_model):
        t64 = flat_model.evaluate(
            random_profile(), PlacementMix.pure(Location.HBM), 64
        ).time_ns
        t256 = flat_model.evaluate(
            random_profile(), PlacementMix.pure(Location.HBM), 256
        ).time_ns
        assert t256 < t64 / 2.0

    def test_random_capped_by_device(self, flat_model):
        """With huge MLP the rate pins at the device random cap."""
        prof = random_profile(mlp=16.0)
        run = flat_model.evaluate(prof, PlacementMix.pure(Location.DRAM), 256)
        cap_lines = flat_model.random_capacity_lines(Location.DRAM, 8 * GB)
        achieved_lines = (
            prof.phases[0].accesses / (run.phase_results[0].time_ns / 1e9)
        )
        assert achieved_lines == pytest.approx(cap_lines, rel=0.01)


class TestMixedPlacement:
    def test_mix_between_pure_extremes(self, flat_model):
        pure_dram = flat_model.evaluate(
            stream_profile(), PlacementMix.pure(Location.DRAM), 64
        ).time_ns
        pure_hbm = flat_model.evaluate(
            stream_profile(), PlacementMix.pure(Location.HBM), 64
        ).time_ns
        mixed = flat_model.evaluate(
            stream_profile(), PlacementMix.of(hbm=0.5, dram=0.5), 64
        ).time_ns
        assert pure_hbm < mixed < pure_dram

    def test_interleave_bandwidth_can_add(self, flat_model):
        """50/50 interleave overlaps both devices: each serves half the
        bytes, so the total time is half the slower device's full time."""
        mixed = flat_model.evaluate(
            stream_profile(), PlacementMix.of(hbm=0.5, dram=0.5), 64
        )
        # DRAM half dominates: 0.5 * bytes / 77 GB/s.
        expected = 0.5 * 4 * GB / (P.dram_stream_gbs * 1e9) * 1e9
        assert mixed.time_ns == pytest.approx(expected, rel=0.02)


class TestComputeSide:
    def test_compute_bound_phase(self, flat_model, machine):
        prof = MemoryProfile(
            "flops",
            (
                Phase(
                    name="fma",
                    pattern=AccessPattern.SEQUENTIAL,
                    traffic_bytes=1.0,
                    flops=1e12,
                    footprint_bytes=1000,
                ),
            ),
        )
        run = flat_model.evaluate(prof, PlacementMix.pure(Location.HBM), 128)
        r = run.phase_results[0]
        assert r.bottleneck == "compute"
        # 1e12 flops at 0.85 issue efficiency of 2662 GF peak.
        expected_ns = 1e12 / (machine.peak_dp_gflops * 0.85 * 1e9) * 1e9
        assert r.time_ns == pytest.approx(expected_ns, rel=0.01)

    def test_memory_bound_phase_reports_memory(self, flat_model):
        run = flat_model.evaluate(
            stream_profile(), PlacementMix.pure(Location.DRAM), 64
        )
        assert run.phase_results[0].bottleneck == "memory"


class TestRunResult:
    def test_total_is_sum_of_phases(self, flat_model):
        prof = MemoryProfile(
            "two",
            (
                Phase("a", AccessPattern.SEQUENTIAL, 1 * GB, footprint_bytes=GB),
                Phase("b", AccessPattern.SEQUENTIAL, 2 * GB, footprint_bytes=GB),
            ),
        )
        run = flat_model.evaluate(prof, PlacementMix.pure(Location.DRAM), 64)
        assert run.time_ns == pytest.approx(
            sum(p.time_ns for p in run.phase_results)
        )

    def test_rate_and_gflops(self, flat_model):
        run = flat_model.evaluate(
            stream_profile(), PlacementMix.pure(Location.DRAM), 64
        )
        assert run.rate_per_s(100.0) == pytest.approx(100.0 / run.time_s)
        assert run.gflops(1e9) == pytest.approx(1.0 / run.time_s)


class TestRunDescribe:
    def test_breakdown_mentions_phases_and_bottlenecks(self, flat_model):
        from repro.workloads.minife import MiniFE

        w = MiniFE.from_matrix_gb(3.6)
        run = flat_model.evaluate(w.profile(), PlacementMix.pure(Location.HBM), 128)
        text = run.describe()
        assert "spmv-stream" in text
        assert "vector-ops" in text
        assert "memory-bound" in text
        assert "GB/s" in text
        assert "sync x" in text  # vector-ops carries dot-product sync


class TestColumnarTwins:
    """The model-level ``*_many`` methods equal their scalar twins exactly.

    These are the paths :class:`repro.engine.batch.ModelTables` uses to
    fill its memo tables in bulk, so the bar is bit identity per element
    — per location kind (flat DRAM/HBM and the DRAM-fronted cache mode)
    across footprints straddling MCDRAM capacity.
    """

    FOOTPRINTS = [4096, 1 * GB, 8 * GB, 16 * GiB, 24 * GB, 200 * GB]

    def column(self):
        import numpy as np

        return np.array(self.FOOTPRINTS, dtype=np.int64)

    def locations(self, model):
        if model.memory.dram_fronted_by_cache:
            return [Location.DRAM_CACHED]
        return [Location.DRAM, Location.HBM]

    def models(self, flat_model, cache_model_pm):
        return [flat_model, cache_model_pm]

    def test_sequential_bandwidth_many(self, flat_model, cache_model_pm):
        for model in self.models(flat_model, cache_model_pm):
            for loc in self.locations(model):
                for tpc in (1, 2, 4):
                    many = model.sequential_bandwidth_many(
                        loc, self.column(), tpc, 0.33
                    )
                    for fp, got in zip(self.FOOTPRINTS, many.tolist()):
                        assert got == model.sequential_bandwidth(
                            loc, fp, tpc, 0.33
                        ), (loc, tpc, fp)

    def test_sequential_latency_ns_many(self, flat_model, cache_model_pm):
        for model in self.models(flat_model, cache_model_pm):
            for loc in self.locations(model):
                many = model.sequential_latency_ns_many(loc, self.column())
                for fp, got in zip(self.FOOTPRINTS, many.tolist()):
                    assert got == model.sequential_latency_ns(loc, fp), (
                        loc,
                        fp,
                    )

    def test_random_latency_ns_many(self, flat_model, cache_model_pm):
        for model in self.models(flat_model, cache_model_pm):
            for loc in self.locations(model):
                many = model.random_latency_ns_many(loc, self.column())
                for fp, got in zip(self.FOOTPRINTS, many.tolist()):
                    assert got == model.random_latency_ns(loc, fp), (loc, fp)

    def test_random_capacity_lines_many(self, flat_model, cache_model_pm):
        for model in self.models(flat_model, cache_model_pm):
            for loc in self.locations(model):
                for wf in (0.0, 0.5):
                    many = model.random_capacity_lines_many(
                        loc, self.column(), wf
                    )
                    for fp, got in zip(self.FOOTPRINTS, many.tolist()):
                        assert got == model.random_capacity_lines(
                            loc, fp, wf
                        ), (loc, wf, fp)

    def test_unavailable_location_rejected(self, flat_model, cache_model_pm):
        for model, loc in (
            (flat_model, Location.DRAM_CACHED),
            (cache_model_pm, Location.HBM),
        ):
            with pytest.raises(ValueError):
                model.sequential_bandwidth_many(loc, self.column(), 1)
