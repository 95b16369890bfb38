"""Ablation: multi-node decomposition sizing (Section IV-C's guideline).

Sweep the node count for a 96 GB MiniFE problem: aggregate throughput
jumps once per-node sub-problems fit the 16 GB HBM — the paper's
"decompose so each compute node is assigned a sub-problem close to the
HBM capacity".
"""

from repro.core.configs import ConfigName
from repro.core.decomposition import hbm_knee, sweep_node_counts
from repro.util.tables import TextTable
from repro.workloads.minife import MiniFE

TOTAL_GB = 96.0
NODE_COUNTS = [2, 4, 6, 8, 12, 16]


def run_ablation(runner):
    return sweep_node_counts(
        MiniFE.from_matrix_gb, TOTAL_GB, NODE_COUNTS, runner=runner
    )


def test_ablation_decomposition(benchmark, runner, record_text):
    points = benchmark(run_ablation, runner)
    table = TextTable(
        ["nodes", "per-node (GB)", "best config", "aggregate CG MFLOPS",
         "parallel eff."],
        title=f"Ablation: decomposition of a {TOTAL_GB:g} GB MiniFE problem",
    )
    for p in points:
        table.add_row(
            [
                p.nodes,
                f"{p.per_node_gb:.1f}",
                p.best_config.value if p.best_config else "-",
                "-" if p.aggregate_metric is None else f"{p.aggregate_metric:.3g}",
                f"{p.parallel_efficiency:.3f}",
            ]
        )
    text = table.render()
    record_text("ablation_decomposition", text)
    print(text)
    by_nodes = {p.nodes: p for p in points}
    # Sub-problems larger than HBM run on DRAM/cache; once they fit, the
    # best config flips to HBM and aggregate throughput jumps superlinearly.
    assert by_nodes[4].best_config is not ConfigName.HBM
    assert by_nodes[8].best_config is ConfigName.HBM
    jump = by_nodes[8].aggregate_metric / by_nodes[4].aggregate_metric
    assert jump > 3.0  # far beyond the 2x node-count increase
    knee = hbm_knee(points)
    assert knee is not None and knee.nodes <= 8
