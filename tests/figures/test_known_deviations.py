"""Pin the documented deviations from the paper (EXPERIMENTS.md).

The golden suite asserts the exhibits don't drift; this suite asserts
the four *known deviations* collected in EXPERIMENTS.md stay exactly as
documented — each gets a numeric band.  If a model improvement moves a
number back toward the paper, the test failing here is the prompt to
update both the band and the EXPERIMENTS.md entry; if a regression
widens a deviation, the band catches it before the golden diff has to.

1. Fig. 3 gap tail: 13.9 % at 1 GB vs the paper's 15 % floor.
2. Fig. 4c spread: HBM/cache gaps of 1-28 % vs the paper's few percent.
3. Fig. 6b peak ratio: HBM@256 / DRAM@64 = 4.2x vs the paper's 3.8x.
4. Fig. 6c: HBM/cache peak at 192 threads (paper: everything at 128);
   DRAM and the global optimum peak at 128 as reported.
"""

from __future__ import annotations

import pytest

from repro.figures import EXHIBITS


def _generate(exhibit_id):
    return EXHIBITS[exhibit_id]()


@pytest.fixture(scope="module")
def fig3():
    return _generate("fig3").data


@pytest.fixture(scope="module")
def fig4c():
    return _generate("fig4c").data


@pytest.fixture(scope="module")
def fig6b():
    return _generate("fig6b").data


@pytest.fixture(scope="module")
def fig6c():
    return _generate("fig6c").data


# -- deviation 1: Fig. 3 gap tail ---------------------------------------------


def test_fig3_gap_peaks_just_past_l2_then_decays(fig3):
    gaps = fig3["gap_percent"]
    # L2-resident blocks: both devices at the same ~10 ns tier, no gap.
    assert all(abs(g) < 0.5 for g in gaps[:4])
    # Peak just above 1 MB: ~21 %, at the top of the paper's 15-20 % band.
    peak = max(gaps)
    assert gaps[4] == peak
    assert 20.0 <= peak <= 22.0


def test_fig3_gap_tail_dips_below_the_paper_floor(fig3):
    gaps = fig3["gap_percent"]
    tail = gaps[-3:]  # 256 MB, 512 MB, 1 GB
    # The documented deviation: the tail sits at 13-14 %, under the
    # paper's 15 % floor.  It must stay a *slight* dip — never a collapse
    # (>= 12 %) and never silently recovered (< 15 %).
    assert all(12.0 <= g < 15.0 for g in tail), tail
    # Beyond the peak every DRAM-resident gap stays inside 12-21 %.
    assert all(12.0 <= g <= 21.5 for g in gaps[4:])


# -- deviation 2: Fig. 4c spread ----------------------------------------------


def test_fig4c_configuration_gaps_exceed_the_papers_few_percent(fig4c):
    hbm = [v for v in fig4c["hbm_improvement"] if v is not None]
    cache = [v for v in fig4c["cache_improvement"] if v is not None]
    # Ordering is the paper's: DRAM marginally best for GUPS at 64
    # threads, cache mode worst.
    assert all(v < 1.0 for v in hbm)
    assert all(v < 1.0 for v in cache)
    assert min(cache) <= min(hbm)
    # The documented deviation: gaps of 1-28 % (the paper's band is ~4 %
    # wide).  Bands bracket the current values 0.86-0.99x and 0.72-0.79x.
    assert 0.85 <= min(hbm) and max(hbm) <= 0.995
    assert 0.70 <= min(cache) and max(cache) <= 0.80


def test_fig4c_dram_band_stays_flat(fig4c):
    dram = [v for v in fig4c["DRAM"] if v is not None]
    assert (max(dram) - min(dram)) / max(dram) < 0.06


# -- deviation 3: Fig. 6b peak ratio ------------------------------------------


def test_fig6b_peak_ratio_runs_high_of_the_paper(fig6b):
    hbm = fig6b["HBM"]
    dram = fig6b["DRAM"]
    threads = fig6b["threads"]
    ratio = hbm[threads.index(256)] / dram[threads.index(64)]
    # Paper: 3.8x.  Documented deviation: ~4.2x (about 11 % high).  A
    # drop below 3.8 or a climb past 4.6 is new behaviour, not this one.
    assert 3.8 <= ratio <= 4.6, ratio


def test_fig6b_dram_stays_flat_while_hbm_scales(fig6b):
    speedups = fig6b["speedup_vs_64"]
    assert all(0.95 <= v <= 1.10 for v in speedups["DRAM"])
    assert max(speedups["HBM"]) >= 1.4


# -- deviation 4: Fig. 6c peak placement --------------------------------------


def test_fig6c_dram_and_global_optimum_peak_at_128(fig6c):
    threads = fig6c["threads"]
    dram = fig6c["DRAM"]
    assert threads[dram.index(max(dram))] == 128
    best = max(max(v for v in fig6c[k] if v is not None)
               for k in ("DRAM", "HBM", "Cache Mode"))
    assert best == max(dram)


def test_fig6c_hbm_and_cache_peak_late_at_192(fig6c):
    threads = fig6c["threads"]
    for key in ("HBM", "Cache Mode"):
        series = fig6c[key]
        assert threads[series.index(max(series))] == 192, (
            f"{key} no longer peaks at 192 threads — the documented "
            "deviation from the paper's 128-thread optimum has moved; "
            "update EXPERIMENTS.md and this band together"
        )
