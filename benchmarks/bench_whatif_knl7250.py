"""What-if: the paper's conclusions on Cori's KNL 7250 (68 cores @ 1.4 GHz).

Section VI argues the conclusions "can be generalized to other
heterogeneous memory systems with similar characteristics".  This bench
replays the core comparisons on the 7250 machine model: every qualitative
conclusion (HBM for sequential, DRAM for random, SMT rescuing HBM) must
survive the machine change.
"""

from repro.core.configs import ConfigName
from repro.engine.batch import BatchEvaluator
from repro.machine.presets import knl7250
from repro.util.tables import TextTable
from repro.workloads.gups import GUPS
from repro.workloads.minife import MiniFE
from repro.workloads.xsbench import XSBench


def run_whatif():
    # One columnar evaluation over the full 12-cell comparison grid
    # (bit-identical to the historical per-cell ExperimentRunner loop).
    evaluator = BatchEvaluator(knl7250())
    cores = evaluator.machine.num_cores
    trio = ConfigName.paper_trio()
    rows = [
        ("minife", MiniFE.from_matrix_gb(7.2), cores),
        ("gups", GUPS.from_table_gb(8.0), cores),
        ("xsbench-1t", XSBench.from_problem_gb(11.3), cores),
        ("xsbench-4t", XSBench.from_problem_gb(11.3), 4 * cores),
    ]
    cells = [
        (workload, config, threads)
        for _, workload, threads in rows
        for config in trio
    ]
    records = evaluator.evaluate(cells).records()
    return {
        name: {
            config: records[row * len(trio) + j].metric
            for j, config in enumerate(trio)
        }
        for row, (name, _, _) in enumerate(rows)
    }


def test_whatif_knl7250(benchmark, record_text):
    results = benchmark(run_whatif)
    table = TextTable(
        ["workload"] + [c.value for c in ConfigName.paper_trio()],
        title="What-if: Xeon Phi 7250 (68 cores @ 1.4 GHz, Cori)",
    )
    for name, values in results.items():
        table.add_row(
            [name]
            + [
                "-" if values[c] is None else f"{values[c]:.4g}"
                for c in ConfigName.paper_trio()
            ]
        )
    text = table.render()
    record_text("whatif_knl7250", text)
    print(text)
    # The paper's conclusions generalize to the second machine:
    minife = results["minife"]
    assert minife[ConfigName.HBM] > 2.5 * minife[ConfigName.DRAM]
    gups = results["gups"]
    assert gups[ConfigName.DRAM] >= gups[ConfigName.HBM]
    xs1, xs4 = results["xsbench-1t"], results["xsbench-4t"]
    assert xs1[ConfigName.DRAM] > xs1[ConfigName.HBM]
    assert xs4[ConfigName.HBM] > xs4[ConfigName.DRAM]
