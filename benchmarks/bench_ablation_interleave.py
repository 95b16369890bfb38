"""Ablation: page interleaving for problems larger than either memory.

Section IV-C: "On platforms with similar ratio between DRAM and HBM, the
only way to run some large problems might be to use both HBM and DRAM
side-by-side, e.g., setting HBM in flat mode and interleaving memory
allocation between the two memories."  This ablation runs a STREAM
problem that exceeds the 96 GiB DDR node alone: only the interleave
configuration is feasible, and its bandwidth lands between DRAM and HBM
(both devices serve their page share concurrently).
"""

from repro.core.configs import ConfigName, make_config
from repro.core.runner import ExperimentRunner
from repro.util.tables import TextTable
from repro.workloads.stream import StreamBenchmark

SIZES_GB = (40.0, 80.0, 100.0, 108.0)
CONFIGS = (ConfigName.DRAM, ConfigName.HBM, ConfigName.INTERLEAVE)


def run_ablation(runner: ExperimentRunner):
    rows = {}
    for gb in SIZES_GB:
        workload = StreamBenchmark(size_bytes=int(gb * 1e9))
        rows[gb] = {
            name: runner.run(workload, make_config(name), 64).metric
            for name in CONFIGS
        }
    return rows


def test_ablation_interleave(benchmark, runner, record_text):
    rows = benchmark(run_ablation, runner)
    table = TextTable(
        ["Size (GB)"] + [c.value for c in CONFIGS],
        title="Ablation: interleaving as capacity augmentation (STREAM GB/s)",
    )
    for gb, values in rows.items():
        table.add_row(
            [f"{gb:g}"]
            + [
                "-" if values[c] is None else f"{values[c] / 1e9:.1f}"
                for c in CONFIGS
            ]
        )
    text = table.render()
    record_text("ablation_interleave", text)
    print(text)
    large = rows[108.0]
    # 108 GB exceeds both the 16 GiB HBM node and the 96 GiB DDR node:
    # only interleaving runs at all — HBM augments capacity.
    assert large[ConfigName.DRAM] is None
    assert large[ConfigName.HBM] is None
    assert large[ConfigName.INTERLEAVE] is not None
    # Where everything fits, interleave lands between the pure bindings.
    mid = rows[40.0]
    assert mid[ConfigName.DRAM] < mid[ConfigName.INTERLEAVE]
