"""Engine perf trajectory: scalar vs columnar batch throughput.

Unlike the exhibit benches, this one measures the reproduction *engine*
itself: a 10k-point query grid through the per-point
:class:`~repro.core.runner.ExperimentRunner` loop versus
:class:`~repro.engine.batch.BatchEvaluator`, with bit-identity verified
on a sample before any speedup is recorded.  Results are written to
``BENCH_engine.json`` at the repo root (the perf trajectory CI tracks;
each run *appends* to the file's ``history`` list rather than erasing
the trajectory) in addition to the usual ``benchmarks/output/`` text
dump.

Floor recalibration (2026-08): the scalar hot path was overhauled
(closed-form mesh coherence timing plus memoized machine, placement,
numactl, profile and MCDRAM hit-rate chains), dropping the scalar
baseline from ~690 us/point to ~90-115 us/point (88.7 in the latest
``BENCH_engine.json`` row).  A ~7x faster denominator compresses every
batch-over-scalar ratio — steady state went from ~157x to 9-22x across
the recorded history (9.3x in the latest row) with the batch path
*unchanged* — so the floors
below are lower than they were while guarding a strictly faster engine.
The scalar ceiling is the new guard that keeps the overhaul honest.
The floors stay deliberately conservative so CI noise cannot fail the
build while a real regression — the batch path silently falling back to
per-point evaluation, the warm path rebuilding tables it should have
loaded, the scalar memos being lost — still does.
"""

import pathlib

from repro.core.perfbench import measure_engine, write_engine_bench
from repro.machine import registry

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Steady-state batch speedup over the scalar loop (measured 9-22x;
#: 9.3x in the latest BENCH_engine.json row).
SPEEDUP_FLOOR = 5.0
#: First evaluation of a fresh evaluator against a *populated* table
#: cache must stay comfortably ahead of the scalar loop: table loading,
#: not rebuilding, is what a restarted service pays (docs/ENGINE.md).
#: Measured 8.1x in the latest BENCH_engine.json row.
WARM_SPEEDUP_FLOOR = 3.0
#: The scalar loop itself must stay an order of magnitude below its old
#: 690 us/point baseline (measured 89-114 us/point after the overhaul).
SCALAR_US_PER_POINT_CEILING = 250.0


def test_engine_throughput(benchmark, record_text):
    result = benchmark.pedantic(measure_engine, rounds=1, iterations=1)
    write_engine_bench(result, REPO_ROOT / "BENCH_engine.json")
    record_text("engine_throughput", result.describe())
    print(result.describe())

    assert result.grid_points >= 10_000
    assert result.identity_checked_points > 0
    # Conservative bounds: the scalar loop must hold its overhauled
    # per-point cost, and the batch engine must stay well ahead of it
    # (steady state and cache-warmed first touch alike).
    assert (
        result.scalar_us_per_point <= SCALAR_US_PER_POINT_CEILING
    ), result.describe()
    assert result.speedup_hot >= SPEEDUP_FLOOR, result.describe()
    assert result.speedup_warm >= WARM_SPEEDUP_FLOOR, result.describe()


def test_engine_throughput_non_knl(benchmark, record_text):
    """The batch engine's speedup floor is a property of the columnar
    layout, not of the KNL tables — it must hold on a registry machine
    with a different tier pair and a shorter thread ladder (Xeon Max:
    SMT2, so 112 hardware threads instead of 256)."""
    machine = registry.build("xeonmax9480")
    result = benchmark.pedantic(
        lambda: measure_engine(2_520, machine=machine),
        rounds=1,
        iterations=1,
    )
    record_text("engine_throughput_xeonmax9480", result.describe())
    print(result.describe())

    assert result.grid_points >= 2_520
    assert result.identity_checked_points > 0
    assert result.speedup_hot >= SPEEDUP_FLOOR, result.describe()
