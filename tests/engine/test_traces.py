"""Trace-driven validation: the analytic cache-model formulas must match
the functional simulator at miniature scale."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.oracles.traces import (
    drive_cache,
    miniature_mcdram_cache,
    random_trace,
    sequential_trace,
    strided_trace,
    zipfian_trace,
)
from repro.memory.dram import ddr4_archer
from repro.memory.mcdram import mcdram_archer
from repro.memory.mcdram_cache import MCDRAMCacheModel
from repro.util.units import CACHE_LINE


class TestGenerators:
    def test_sequential_line_aligned(self):
        trace = sequential_trace(1024, passes=2)
        assert (trace % CACHE_LINE == 0).all()
        assert len(trace) == 2 * (1024 // CACHE_LINE)

    def test_sequential_repeats(self):
        trace = sequential_trace(640, passes=3)
        per_pass = 640 // CACHE_LINE
        assert (trace[:per_pass] == trace[per_pass : 2 * per_pass]).all()

    def test_random_within_footprint(self):
        trace = random_trace(4096, 1000, seed=0)
        assert trace.min() >= 0
        assert trace.max() < 4096
        assert (trace % CACHE_LINE == 0).all()

    def test_random_deterministic(self):
        a = random_trace(4096, 100, seed=3)
        b = random_trace(4096, 100, seed=3)
        assert (a == b).all()

    def test_strided_wraps(self):
        trace = strided_trace(256, 128, 10)
        assert trace.max() < 256

    def test_zipf_skewed(self):
        trace = zipfian_trace(64 * 1024, 5000, seed=1)
        _, counts = np.unique(trace, return_counts=True)
        # The most popular line dominates a uniform share by far.
        assert counts.max() > 10 * counts.mean()

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            zipfian_trace(1024, 10, skew=0.0)

    def test_drive_warmup_validation(self):
        with pytest.raises(ValueError):
            drive_cache(miniature_mcdram_cache(), np.array([0]), warmup_fraction=1.0)


class TestStreamingValidation:
    """Streaming reuse: fits -> ~all hits after warmup; the analytic model
    assumes contiguous placement below capacity."""

    def test_fitting_stream_all_hits_steady(self):
        geometry = miniature_mcdram_cache(capacity_lines=512)
        trace = sequential_trace(256 * CACHE_LINE, passes=4)
        result = drive_cache(geometry, trace)
        assert result.steady_hit_rate == 1.0

    def test_modulo_tail_formula(self):
        """For a cyclic stream of F > C through a direct-mapped cache with
        contiguous addresses, survivors are (2C - F) lines: hit rate
        max(0, (2C-F)/F).  This is the analytic model's large-r bound."""
        capacity = 256
        geometry = miniature_mcdram_cache(capacity_lines=capacity)
        for factor in (1.25, 1.5, 2.0, 3.0):
            footprint_lines = int(capacity * factor)
            trace = sequential_trace(footprint_lines * CACHE_LINE, passes=6)
            result = drive_cache(geometry, trace, warmup_fraction=0.5)
            expected = max(0.0, (2 * capacity - footprint_lines) / footprint_lines)
            assert result.steady_hit_rate == pytest.approx(expected, abs=0.02)


class TestRandomValidation:
    """The closed form h(r) = (1/r)(1 - e^-r) for direct-mapped caches
    under uniform random access, used by
    MCDRAMCacheModel.random_hit_rate, checked against simulation."""

    @pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_closed_form_matches_simulation(self, ratio):
        capacity = 1024
        geometry = miniature_mcdram_cache(capacity_lines=capacity)
        footprint_lines = int(capacity * ratio)
        trace = random_trace(
            footprint_lines * CACHE_LINE, 60_000, seed=int(ratio * 100),
            scattered=True,
        )
        simulated = drive_cache(geometry, trace, warmup_fraction=0.3)
        analytic = (1.0 / ratio) * (1.0 - math.exp(-ratio))
        assert simulated.steady_hit_rate == pytest.approx(
            min(1.0, analytic), abs=0.03
        )

    def test_model_object_agrees_with_simulation(self):
        """End-to-end: the 16 GiB MCDRAMCacheModel's prediction transfers
        to a miniature at the same footprint ratio."""
        model = MCDRAMCacheModel(mcdram_archer(), ddr4_archer())
        ratio = 1.5
        footprint = int(model.capacity_bytes * ratio)
        predicted = model.random_hit_rate(footprint)
        capacity = 512
        trace = random_trace(
            int(capacity * ratio) * CACHE_LINE, 40_000, seed=7,
            scattered=True,
        )
        simulated = drive_cache(
            miniature_mcdram_cache(capacity_lines=capacity), trace,
            warmup_fraction=0.3,
        )
        assert simulated.steady_hit_rate == pytest.approx(predicted, abs=0.03)

    @given(st.floats(min_value=0.2, max_value=4.0))
    @settings(max_examples=10, deadline=None)
    def test_closed_form_property(self, ratio):
        capacity = 256
        footprint_lines = max(1, int(capacity * ratio))
        trace = random_trace(
            footprint_lines * CACHE_LINE, 20_000,
            seed=int(ratio * 1000), scattered=True,
        )
        simulated = drive_cache(
            miniature_mcdram_cache(capacity_lines=capacity), trace,
            warmup_fraction=0.3,
        )
        # Exact finite-size form h = (S/F)(1 - (1-1/S)^F); the model's
        # (1/r)(1-e^-r) is its large-S limit.
        exact = (capacity / footprint_lines) * (
            1.0 - (1.0 - 1.0 / capacity) ** footprint_lines
        )
        assert simulated.steady_hit_rate == pytest.approx(
            min(1.0, exact), abs=0.08
        )


class TestAssociativityValidation:
    def test_associative_beats_direct_on_random(self):
        """The ablation's premise: below capacity, associativity removes
        conflict misses under random access."""
        footprint_lines = 400  # < 512 capacity
        trace = random_trace(
            footprint_lines * CACHE_LINE, 30_000, seed=2, scattered=True
        )
        direct = drive_cache(
            miniature_mcdram_cache(capacity_lines=512, associativity=1), trace
        )
        assoc = drive_cache(
            miniature_mcdram_cache(capacity_lines=512, associativity=8), trace
        )
        assert assoc.steady_hit_rate > direct.steady_hit_rate + 0.05
        # Not quite 1.0: with scattered placement a few sets exceed 8
        # resident lines even below total capacity.
        assert assoc.steady_hit_rate > 0.94

    def test_zipf_friendlier_than_uniform(self):
        """Skewed popularity caches better than uniform at the same
        footprint — why some graph workloads behave less badly than GUPS."""
        capacity = 256
        footprint = 4 * capacity * CACHE_LINE
        uniform = drive_cache(
            miniature_mcdram_cache(capacity_lines=capacity),
            random_trace(footprint, 30_000, seed=4, scattered=True),
        )
        zipf = drive_cache(
            miniature_mcdram_cache(capacity_lines=capacity),
            zipfian_trace(footprint, 30_000, seed=4),
        )
        assert zipf.steady_hit_rate > uniform.steady_hit_rate + 0.1
