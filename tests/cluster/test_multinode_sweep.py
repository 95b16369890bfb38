"""Multi-node decomposition driven through a SweepExecutor.

:class:`~repro.cluster.multinode.MultiNodeModel` takes any runner-shaped
object, so the executor's memoized run cache (and, with ``check=``, the
invariant checker) slots straight under a node-count sweep — the same
composition ``knl-hybridmem decompose`` uses.  This covers the cluster
layer end-to-end: decomposition, per-node advisor choice, Aries
communication time, and cache reuse across repeated decompositions.
"""

from __future__ import annotations

import pytest

from repro.cluster.multinode import MultiNodeModel
from repro.core.configs import ConfigName
from repro.core.executor import SweepExecutor
from repro.core.runner import ExperimentRunner
from repro.workloads.registry import FROM_GB

TOTAL_GB = 96.0
NODE_COUNTS = [2, 4, 8, 16]


@pytest.fixture(scope="module")
def executor():
    return SweepExecutor(ExperimentRunner(), check="raise")


@pytest.fixture(scope="module")
def sweep(executor):
    model = MultiNodeModel(executor)
    return {
        nodes: model.run(FROM_GB["minife"], TOTAL_GB, nodes)
        for nodes in NODE_COUNTS
    }


def test_decomposition_accounting(sweep):
    for nodes, result in sweep.items():
        assert result.nodes == nodes
        assert result.per_node_gb == pytest.approx(TOTAL_GB / nodes)
        assert result.aggregate_metric == pytest.approx(
            nodes * result.per_node_metric
        )
        assert result.total_s == pytest.approx(
            result.compute_s + result.communication_s
        )
        assert 0.0 < result.parallel_efficiency <= 1.0


def test_small_subproblems_move_to_hbm(sweep):
    # 48 GB/node only fits DRAM; by 8 nodes (12 GB) the advisor should
    # have switched the sub-problem into the flat HBM node.
    assert sweep[2].config is ConfigName.DRAM
    assert sweep[8].config is ConfigName.HBM
    assert sweep[16].config is ConfigName.HBM


def test_aggregate_throughput_grows_with_nodes(sweep):
    aggregates = [sweep[n].aggregate_metric for n in NODE_COUNTS]
    assert all(b > a for a, b in zip(aggregates, aggregates[1:]))


def test_communication_model_engages_for_minife(sweep):
    # MiniFE has a wired communication profile (halo exchange + allreduce):
    # every decomposition pays a positive, sub-dominant wire time.
    for result in sweep.values():
        assert result.communication_s > 0
        assert result.communication_s < result.compute_s


def test_every_cell_was_audited(executor, sweep):
    checking = executor.checking
    assert checking is not None
    assert checking.runs_checked > 0
    assert checking.violation_count == 0


def test_repeated_decomposition_hits_the_run_cache(executor, sweep):
    before = executor.stats()
    model = MultiNodeModel(executor)
    again = model.run(FROM_GB["minife"], TOTAL_GB, 8)
    after = executor.stats()
    assert again.aggregate_metric == pytest.approx(
        sweep[8].aggregate_metric
    )
    assert after.executed == before.executed  # nothing re-ran
    assert after.hits > before.hits
