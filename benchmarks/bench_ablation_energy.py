"""Ablation: data-movement energy across configurations.

The paper motivates HBM partly through data-movement cost (citing Kestor
et al.'s energy study).  This extension prices each configuration: for a
bandwidth-bound application HBM wins on time *and* energy; for a
latency-bound one DRAM's shorter runtime wins total energy even though
HBM moves bytes more cheaply.
"""

from repro.core.report import energy_comparison
from repro.core.configs import ConfigName
from repro.core.runner import ExperimentRunner
from repro.engine.energy import EnergyModel
from repro.workloads.gups import GUPS
from repro.workloads.minife import MiniFE


def run_ablation(runner: ExperimentRunner):
    model = EnergyModel()
    out = {}
    for label, workload in (
        ("minife", MiniFE.from_matrix_gb(7.2)),
        ("gups", GUPS.from_table_gb(8.0)),
    ):
        profile = workload.profile()
        per_config = {}
        for config in ConfigName.paper_trio():
            record = runner.run(workload, config, 64)
            assert record.run_result is not None
            estimate = model.estimate(profile, record.run_result)
            per_config[config] = (record.run_result.time_s, estimate.total_j)
        out[label] = per_config
    return out


def test_ablation_energy(benchmark, runner, record_text):
    results = benchmark(run_ablation, runner)
    text = "\n\n".join(
        energy_comparison(w, runner=runner).render()
        for w in (MiniFE.from_matrix_gb(7.2), GUPS.from_table_gb(8.0))
    )
    record_text("ablation_energy", text)
    print(text)
    minife = results["minife"]
    gups = results["gups"]
    # Bandwidth-bound: HBM wins time and total energy.
    assert minife[ConfigName.HBM][0] < minife[ConfigName.DRAM][0]
    assert minife[ConfigName.HBM][1] < minife[ConfigName.DRAM][1]
    # Latency-bound: DRAM wins total energy despite pricier byte transfers.
    assert gups[ConfigName.DRAM][1] < gups[ConfigName.HBM][1]
