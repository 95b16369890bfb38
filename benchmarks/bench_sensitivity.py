"""Sensitivity study: the paper's conclusions under calibration error.

Perturbs every calibrated device characteristic by +-20% and re-checks
the Section VI conclusions.  Expected outcome: everything holds except
one physically meaningful flip — HBM latency 20% *lower* (i.e., below
DDR4's) inverts the random-access DRAM preference, because that
preference is *caused* by HBM's higher latency.
"""

from repro.core.sensitivity import SensitivityAnalysis
from repro.util.tables import TextTable


def run_study():
    analysis = SensitivityAnalysis()
    return analysis.run()


def test_sensitivity(benchmark, record_text):
    results = benchmark(run_study)
    perturbations = sorted({r.perturbation for r in results})
    conclusions = sorted({r.conclusion for r in results})
    table = TextTable(
        ["perturbation"] + conclusions,
        title="Sensitivity: +-20% on device characteristics",
        align=["l"] + ["c"] * len(conclusions),
    )
    by_cell = {(r.perturbation, r.conclusion): r.holds for r in results}
    for p in perturbations:
        table.add_row(
            [p] + ["ok" if by_cell[(p, c)] else "FLIP" for c in conclusions]
        )
    text = table.render()
    record_text("sensitivity", text)
    print(text)
    flipped = SensitivityAnalysis.flipped(results)
    assert len(flipped) <= 1
    for r in flipped:
        assert (r.perturbation, r.conclusion) == (
            "hbm-latency -20%",
            "dram-best-for-xsbench-at-1tpc",
        )
