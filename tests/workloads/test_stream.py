"""STREAM workload tests."""

import pytest

from repro.engine.profilephase import AccessPattern
from repro.workloads.stream import StreamBenchmark, StreamKernel


class TestSizing:
    def test_footprint_is_three_arrays(self):
        s = StreamBenchmark(size_bytes=3 * 8 * 1000)
        assert s.n_elements == 1000
        assert s.footprint_bytes == 24_000

    def test_triad_counts_footprint_per_iteration(self):
        """STREAM triad counts 3 x 8 x N bytes — exactly the footprint —
        so the paper's size axis equals per-iteration traffic."""
        s = StreamBenchmark(size_bytes=3 * 8 * 1000, ntimes=1)
        assert s.operations == s.footprint_bytes

    def test_copy_counts_two_arrays(self):
        s = StreamBenchmark(
            size_bytes=3 * 8 * 1000, ntimes=1, kernel=StreamKernel.COPY
        )
        assert s.operations == 2 * 8 * 1000

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            StreamBenchmark(size_bytes=8)


class TestProfile:
    def test_sequential_pattern(self):
        prof = StreamBenchmark(size_bytes=24_000).profile()
        assert prof.phases[0].pattern is AccessPattern.SEQUENTIAL

    def test_traffic_scales_with_ntimes(self):
        one = StreamBenchmark(size_bytes=24_000, ntimes=1).profile()
        ten = StreamBenchmark(size_bytes=24_000, ntimes=10).profile()
        assert ten.phases[0].traffic_bytes == 10 * one.phases[0].traffic_bytes

    def test_triad_flops(self):
        prof = StreamBenchmark(size_bytes=24_000, ntimes=1).profile()
        assert prof.phases[0].flops == 2.0 * 1000

    def test_write_fraction(self):
        prof = StreamBenchmark(size_bytes=24_000).profile()
        assert prof.phases[0].write_fraction == pytest.approx(1 / 3)


class TestExecute:
    def test_self_check_passes(self):
        result = StreamBenchmark(size_bytes=3 * 8 * 500, ntimes=3).execute()
        assert result.verified

    def test_many_iterations_stable(self):
        assert StreamBenchmark(size_bytes=3 * 8 * 64, ntimes=25).execute().verified

    def test_operations_reported(self):
        s = StreamBenchmark(size_bytes=3 * 8 * 100, ntimes=2)
        assert s.execute().operations == s.operations
