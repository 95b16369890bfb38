"""Ablation: direct-mapped vs 8-way MCDRAM cache.

The paper blames the cache-mode degradation on the direct mapping scheme
("which results in higher capacity conflicts when data size increases").
This ablation replays the Fig. 2 STREAM sweep with an 8-way organization
to isolate how much of the drop is conflicts (recoverable) vs capacity
(not).
"""

from repro.core.configs import ConfigName, make_config
from repro.core.sweep import size_sweep
from repro.util.tables import TextTable
from repro.workloads.stream import StreamBenchmark

SIZES_GB = (8.0, 11.4, 14.0, 16.0, 22.8, 32.0)


def run_ablation(runner):
    direct = size_sweep(
        runner,
        lambda gb: StreamBenchmark(size_bytes=int(gb * 1e9)),
        SIZES_GB,
        configs=[make_config(ConfigName.CACHE, cache_associativity=1)],
        title="direct-mapped",
    )
    assoc = size_sweep(
        runner,
        lambda gb: StreamBenchmark(size_bytes=int(gb * 1e9)),
        SIZES_GB,
        configs=[make_config(ConfigName.CACHE, cache_associativity=8)],
        title="8-way",
    )
    return direct, assoc


def test_ablation_cache_associativity(benchmark, runner, record_text):
    direct, assoc = benchmark(run_ablation, runner)
    d = {x: direct.value(x, ConfigName.CACHE) for x in direct.xs}
    a = {x: assoc.value(x, ConfigName.CACHE) for x in assoc.xs}
    table = TextTable(
        ["Size (GB)", "direct-mapped (GB/s)", "8-way (GB/s)", "recovered"],
        title="Ablation: MCDRAM cache organization (STREAM triad)",
    )
    for x in SIZES_GB:
        table.add_row(
            [f"{x:g}", f"{d[x] / 1e9:.1f}", f"{a[x] / 1e9:.1f}",
             f"{a[x] / d[x]:.2f}x"]
        )
    text = table.render()
    record_text("ablation_cache_associativity", text)
    print(text)
    # The below-capacity conflict drop (11.4 GB point) is an artifact of
    # direct mapping: associativity recovers ~2x there...
    assert a[11.4] / d[11.4] > 1.8
    # ...but not the capacity-driven decline beyond 16 GiB (the gain past
    # capacity is bounded).
    assert a[32.0] / d[32.0] < 1.8
