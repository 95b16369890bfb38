"""Property-based invariants of the performance model."""

from hypothesis import given, settings, strategies as st

from repro.engine.perfmodel import PerformanceModel
from repro.engine.placement import Location, PlacementMix
from repro.engine.profilephase import AccessPattern, MemoryProfile, Phase
from repro.machine.presets import knl7210
from repro.memory.modes import MCDRAMConfig, MemorySystem
from repro.util.units import GB

MACHINE = knl7210()
FLAT = PerformanceModel(MACHINE, MemorySystem(MCDRAMConfig.flat()))
CACHE = PerformanceModel(MACHINE, MemorySystem(MCDRAMConfig.cache()))


def profile(
    traffic_gb: float,
    footprint_gb: float,
    pattern: AccessPattern,
    flops: float = 0.0,
) -> MemoryProfile:
    return MemoryProfile(
        "w",
        (
            Phase(
                "p",
                pattern,
                traffic_bytes=traffic_gb * GB,
                flops=flops,
                footprint_bytes=int(footprint_gb * GB),
                access_bytes=8 if pattern is AccessPattern.RANDOM else 64,
            ),
        ),
    )


traffic_st = st.floats(min_value=0.01, max_value=100.0)
footprint_st = st.floats(min_value=0.01, max_value=90.0)
pattern_st = st.sampled_from(list(AccessPattern))
threads_st = st.sampled_from([64, 128, 192, 256])


class TestTimePositivity:
    @given(traffic_st, footprint_st, pattern_st, threads_st)
    @settings(max_examples=50, deadline=None)
    def test_time_positive_and_finite(self, traffic, footprint, pattern, threads):
        prof = profile(traffic, footprint, pattern)
        run = FLAT.evaluate(prof, PlacementMix.pure(Location.DRAM), threads)
        assert 0 < run.time_ns < float("inf")


class TestMonotonicity:
    @given(footprint_st, pattern_st, threads_st)
    @settings(max_examples=50, deadline=None)
    def test_time_monotone_in_traffic(self, footprint, pattern, threads):
        small = profile(1.0, footprint, pattern)
        large = profile(2.0, footprint, pattern)
        mix = PlacementMix.pure(Location.DRAM)
        assert FLAT.evaluate(small, mix, threads).time_ns <= FLAT.evaluate(
            large, mix, threads
        ).time_ns

    @given(traffic_st, footprint_st, pattern_st)
    @settings(max_examples=50, deadline=None)
    def test_hbm_never_slower_for_sequential(self, traffic, footprint, pattern):
        """Sequential traffic cannot be slower on HBM (higher bandwidth,
        concurrency-limited demand identical)."""
        if footprint > 16.0:
            footprint = 8.0
        prof = profile(traffic, footprint, AccessPattern.SEQUENTIAL)
        hbm = FLAT.evaluate(prof, PlacementMix.pure(Location.HBM), 64)
        dram = FLAT.evaluate(prof, PlacementMix.pure(Location.DRAM), 64)
        assert hbm.time_ns <= dram.time_ns * 1.0001

    @given(traffic_st, st.floats(min_value=0.5, max_value=14.0))
    @settings(max_examples=50, deadline=None)
    def test_dram_never_meaningfully_slower_for_random_at_64(
        self, traffic, footprint
    ):
        """At one thread per core, random access is latency-bound and
        DRAM wins (Fig. 4 bottom).  The paper notes small problems show
        'small performance difference', so sub-2-GB footprints only need
        near-parity; beyond that the ordering must be strict.  (Below
        ~0.5 GB both devices are bank-limited and MCDRAM's extra banks
        win — a regime outside the paper's measurements, so excluded.)"""
        prof = profile(traffic, footprint, AccessPattern.RANDOM)
        dram = FLAT.evaluate(prof, PlacementMix.pure(Location.DRAM), 64)
        hbm = FLAT.evaluate(prof, PlacementMix.pure(Location.HBM), 64)
        if footprint >= 2.0:
            assert dram.time_ns <= hbm.time_ns * 1.0001
        else:
            assert dram.time_ns <= hbm.time_ns * 1.02

    @given(footprint_st)
    @settings(max_examples=30, deadline=None)
    def test_sequential_hbm_time_monotone_in_threads(self, footprint):
        if footprint > 14.0:
            footprint = 10.0
        prof = profile(10.0, footprint, AccessPattern.SEQUENTIAL)
        mix = PlacementMix.pure(Location.HBM)
        times = [FLAT.evaluate(prof, mix, t).time_ns for t in (64, 128, 192, 256)]
        for earlier, later in zip(times, times[1:]):
            assert later <= earlier * 1.0001


class TestMixInterpolation:
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        traffic_st,
        st.floats(min_value=0.1, max_value=14.0),
        pattern_st,
    )
    @settings(max_examples=50, deadline=None)
    def test_mixture_bounded_by_pure_extremes(
        self, hbm_fraction, traffic, footprint, pattern
    ):
        prof = profile(traffic, footprint, pattern)
        pure_d = FLAT.evaluate(prof, PlacementMix.pure(Location.DRAM), 64).time_ns
        pure_h = FLAT.evaluate(prof, PlacementMix.pure(Location.HBM), 64).time_ns
        if hbm_fraction == 0.0:
            mix = PlacementMix.pure(Location.DRAM)
        elif hbm_fraction == 1.0:
            mix = PlacementMix.pure(Location.HBM)
        else:
            mix = PlacementMix.of(hbm=hbm_fraction, dram=1.0 - hbm_fraction)
        mixed = FLAT.evaluate(prof, mix, 64).time_ns
        lo, hi = sorted((pure_d, pure_h))
        # Overlapped devices can beat both extremes (bandwidth adds) but
        # can never be slower than the slower pure placement.
        assert mixed <= hi * 1.0001


class TestCacheModeBounds:
    @given(traffic_st, st.floats(min_value=0.1, max_value=8.0))
    @settings(max_examples=40, deadline=None)
    def test_fitting_cache_mode_between_dram_and_hbm(self, traffic, footprint):
        """Sequential working sets well inside MCDRAM: cache mode is
        slower than flat HBM (protocol overhead) but faster than DRAM."""
        prof = profile(traffic, footprint, AccessPattern.SEQUENTIAL)
        cached = CACHE.evaluate(
            prof, PlacementMix.pure(Location.DRAM_CACHED), 64
        ).time_ns
        dram = FLAT.evaluate(prof, PlacementMix.pure(Location.DRAM), 64).time_ns
        hbm = FLAT.evaluate(prof, PlacementMix.pure(Location.HBM), 64).time_ns
        assert hbm <= cached <= dram
