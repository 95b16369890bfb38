"""The in-repo PCHIP (repro.util.pchip) is scipy's, bit for bit.

scipy is the test-only oracle: ``PchipInterpolator(x, y,
extrapolate=False)``.  "Equal" means equal IEEE bits — ``-0.0`` and
``0.0`` differ — with any NaN equal to any NaN.  Every check runs both
the scalar call and the columnar :meth:`Pchip.many`, so the two paths
are pinned to each other as well as to the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

from repro.memory.dram import ddr4_archer
from repro.memory.mcdram import mcdram_archer
from repro.memory.mcdram_cache import _STREAM_SURVIVAL_ANCHORS, MCDRAMCacheModel
from repro.util.pchip import Pchip
from repro.util.units import GiB

SHIPPED_X = [a[0] for a in _STREAM_SURVIVAL_ANCHORS]
SHIPPED_Y = [a[1] for a in _STREAM_SURVIVAL_ANCHORS]


def assert_same_bits(got, want) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), "NaN placement differs"
    got, want = got[~nan], want[~nan]
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differ.size == 0, (
        f"{differ.size} mismatches; first: got {got[differ[0]]!r}, "
        f"want {want[differ[0]]!r}"
    )


def probe_points(x, rng: np.random.Generator, count: int) -> np.ndarray:
    """The knots, their float neighbours, the interval midpoints, uniform
    draws over the knot span and a margin outside it, and the
    non-finite inputs."""
    x = np.asarray(x, dtype=np.float64)
    span = x[-1] - x[0]
    return np.concatenate(
        [
            x,
            np.nextafter(x, -np.inf),
            np.nextafter(x, np.inf),
            (x[:-1] + x[1:]) / 2,
            rng.uniform(x[0] - span / 10, x[-1] + span / 10, count),
            [x[0] - span, x[-1] + span, np.nan, np.inf, -np.inf, -0.0],
        ]
    )


def check_against_scipy(x, y, points) -> None:
    points = np.asarray(points, dtype=np.float64)
    # scipy warns where a tiny slope overflows its harmonic mean.
    with np.errstate(over="ignore"):
        want = PchipInterpolator(
            np.asarray(x, dtype=np.float64),
            np.asarray(y, dtype=np.float64),
            extrapolate=False,
        )(points)
    spline = Pchip(x, y)
    assert_same_bits(spline.many(points), want)
    assert_same_bits([spline(v) for v in points.tolist()], want)


class TestShippedCurve:
    def test_dense_grid_and_knot_neighbours(self):
        rng = np.random.default_rng(24)
        points = np.concatenate(
            [
                np.linspace(-0.5, 6.0, 100_001),
                probe_points(SHIPPED_X, rng, 20_000),
            ]
        )
        check_against_scipy(SHIPPED_X, SHIPPED_Y, points)

    def test_scalar_and_columnar_hit_rates_agree(self):
        # The cache model's two paths over a footprint grid dense in the
        # spline region, for the shipped curve and a machine's own.
        footprints = np.linspace(0, 6 * 16 * GiB, 20_001).astype(np.int64)
        own_curve = ((0.0, 1.0), (0.5, 0.9), (1.0, 0.4), (3.0, 0.0))
        for anchors in (_STREAM_SURVIVAL_ANCHORS, own_curve):
            cache = MCDRAMCacheModel(
                mcdram_archer(), ddr4_archer(), survival_anchors=anchors
            )
            many = cache.streaming_hit_rate_many(footprints)
            assert_same_bits(
                many, [cache.streaming_hit_rate(f) for f in footprints.tolist()]
            )


class TestAnchorSets:
    @pytest.mark.parametrize(
        "x, y",
        [
            # two knots: a straight line
            ([0.0, 2.0], [1.0, -3.0]),
            # end estimate against the end slope: zeroed by the guard
            ([0.0, 1.0, 1.1], [0.0, 0.1, 5.0]),
            ([0.0, 0.1, 1.0], [5.0, 0.1, 0.0]),
            # data turn at the ends: capped at three times the end slope
            ([0.0, 1.0, 2.0], [0.0, 1.0, -10.0]),
            ([0.0, 1.0, 2.0], [-10.0, 1.0, 0.0]),
            # plateaus, sign changes and signed zeros
            ([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 1.0, -0.0, 0.0, -2.0]),
            ([-3.0, -1.0, 0.0, 5.0], [-0.0, -0.0, -0.0, -0.0]),
            ([0.0, 1e-3, 1.0, 1e3], [0.0, -1e-9, 1e9, 1e9]),
            # -0.0 at a knot at 0.0, probed at -0.0: PPoly's running sum
            # starts from +0.0, so the answer is +0.0
            ([0.0, 0.5, 1.0, 3.0], [-0.0, 1.0, -0.0, -1.0]),
        ],
    )
    def test_hand_picked_branches(self, x, y):
        check_against_scipy(x, y, probe_points(x, np.random.default_rng(0), 500))

    def test_seeded_random_anchor_sets(self):
        rng = np.random.default_rng(2017)
        for _ in range(300):
            n = int(rng.integers(2, 16))
            x = np.cumsum(rng.uniform(1e-3, 3.0, n)) - rng.uniform(0, 10)
            y = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e3])
            y[rng.random(n) < 0.2] = 0.0
            y[rng.random(n) < 0.1] = -0.0
            if rng.random() < 0.3:
                y = np.sort(y)
            check_against_scipy(x, y, probe_points(x, rng, 300))

    @settings(max_examples=200)
    @given(st.data())
    def test_random_strictly_increasing_anchors(self, data):
        n = data.draw(st.integers(min_value=2, max_value=12))
        start = data.draw(st.floats(-100.0, 100.0))
        gaps = data.draw(
            st.lists(st.floats(1e-3, 100.0), min_size=n - 1, max_size=n - 1)
        )
        x = np.cumsum([start, *gaps])
        value = st.one_of(
            st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0, -1.0])
        )
        y = data.draw(st.lists(value, min_size=n, max_size=n))
        points = data.draw(
            st.lists(st.floats(x[0] - 1.0, x[-1] + 1.0), min_size=1, max_size=20)
        )
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        points = np.concatenate([points, probe_points(x, rng, 50)])
        check_against_scipy(x, y, points)


class TestValidation:
    @pytest.mark.parametrize(
        "x, y",
        [
            ([0.0], [1.0]),
            ([0.0, 1.0], [1.0]),
            ([[0.0, 1.0]], [[1.0, 2.0]]),
            ([0.0, 0.0, 1.0], [1.0, 2.0, 3.0]),
            ([1.0, 0.0], [1.0, 2.0]),
            ([0.0, float("inf")], [1.0, 2.0]),
            ([0.0, 1.0], [float("nan"), 2.0]),
        ],
    )
    def test_rejects_bad_knots(self, x, y):
        with pytest.raises(ValueError):
            Pchip(x, y)
