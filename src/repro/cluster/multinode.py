"""Multi-node run composition: per-node compute + interconnect time.

Turns the paper's Section IV-C reasoning into numbers: a problem is
decomposed over N nodes, each node's sub-problem runs under its best (or
a chosen) memory configuration via the single-node engine, and the
communication the decomposition implies is priced on the Aries model.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass

from repro.cluster.interconnect import AriesInterconnect
from repro.core.advisor import PlacementAdvisor
from repro.core.configs import ConfigName, make_config
from repro.core.runner import ExperimentRunner
from repro.util.validation import check_positive
from repro.workloads.base import Workload
from repro.workloads.graph500.workload import Graph500
from repro.workloads.minife.workload import MiniFE


class CollectiveOp(enum.Enum):
    """Communication primitives a workload step issues."""

    HALO = "halo"
    ALLREDUCE = "allreduce"
    ALLTOALL = "alltoall"


@dataclass(frozen=True)
class CommunicationStep:
    """One collective, repeated ``count`` times over the run."""

    op: CollectiveOp
    nbytes: float
    count: float

    def time_s(self, network: AriesInterconnect, nodes: int) -> float:
        if self.op is CollectiveOp.HALO:
            single = network.halo_exchange_s(self.nbytes)
        elif self.op is CollectiveOp.ALLREDUCE:
            single = network.allreduce_s(self.nbytes, nodes)
        else:
            single = network.alltoall_s(self.nbytes, nodes)
        return single * self.count


@dataclass(frozen=True)
class CommunicationProfile:
    """All communication of one decomposed run on one node."""

    steps: tuple[CommunicationStep, ...]

    def time_s(self, network: AriesInterconnect, nodes: int) -> float:
        return sum(step.time_s(network, nodes) for step in self.steps)


def minife_communication(workload: MiniFE, nodes: int) -> CommunicationProfile:
    """MiniFE's CG communication: one halo exchange and two allreduces
    per iteration (3-D block decomposition)."""
    check_positive("nodes", nodes)
    if nodes == 1:
        return CommunicationProfile(())
    # Sub-domain face: (n_local)^(2/3) nodesworth of doubles.
    local_rows = workload.n_rows / nodes
    face_bytes = 8.0 * local_rows ** (2.0 / 3.0)
    iters = float(workload.cg_iterations)
    return CommunicationProfile(
        (
            CommunicationStep(CollectiveOp.HALO, face_bytes, iters),
            CommunicationStep(CollectiveOp.ALLREDUCE, 8.0, 2.0 * iters),
        )
    )


def graph500_communication(
    workload: Graph500, nodes: int
) -> CommunicationProfile:
    """Graph500's BFS communication: an alltoall of remote frontier edges
    per level (1-D vertex partition, ~d levels on a Kronecker graph)."""
    check_positive("nodes", nodes)
    if nodes == 1:
        return CommunicationProfile(())
    levels = max(1.0, math.log2(workload.n_vertices) / 2.0)
    remote_fraction = 1.0 - 1.0 / nodes
    edge_bytes = 16.0  # (target vertex, source vertex)
    bytes_per_level = (
        workload.n_edges * remote_fraction * edge_bytes / nodes / levels
    )
    return CommunicationProfile(
        (CommunicationStep(CollectiveOp.ALLTOALL, bytes_per_level, levels),)
    )


#: Workload type -> communication builder.
COMMUNICATION_MODELS: dict[type, Callable[[Workload, int], CommunicationProfile]] = {
    MiniFE: minife_communication,  # type: ignore[dict-item]
    Graph500: graph500_communication,  # type: ignore[dict-item]
}


@dataclass(frozen=True)
class MultiNodeResult:
    """Composition of one decomposed run."""

    nodes: int
    per_node_gb: float
    config: ConfigName
    compute_s: float
    communication_s: float
    per_node_metric: float
    aggregate_metric: float

    @property
    def total_s(self) -> float:
        return self.compute_s + self.communication_s

    @property
    def parallel_efficiency(self) -> float:
        return self.compute_s / self.total_s if self.total_s else 1.0


class MultiNodeModel:
    """Compose single-node simulation with interconnect time."""

    def __init__(
        self,
        runner: ExperimentRunner | None = None,
        network: AriesInterconnect | None = None,
    ) -> None:
        self.runner = runner if runner is not None else ExperimentRunner()
        self.network = network if network is not None else AriesInterconnect()

    def run(
        self,
        factory: Callable[[float], Workload],
        total_gb: float,
        nodes: int,
        *,
        config: ConfigName | None = None,
        num_threads: int = 64,
    ) -> MultiNodeResult:
        """Decompose ``total_gb`` over ``nodes`` and compose the run.

        ``config=None`` lets the advisor pick the best per-node
        configuration.  Raises :class:`RuntimeError` when the sub-problem
        fits nothing.
        """
        check_positive("total_gb", total_gb)
        check_positive("nodes", nodes)
        per_node_gb = total_gb / nodes
        workload = factory(per_node_gb)
        if config is None:
            recommendation = PlacementAdvisor(self.runner).recommend(
                workload, num_threads
            )
            record = next(
                r
                for r in recommendation.records
                if r.config is recommendation.best
            )
        else:
            record = self.runner.run(workload, make_config(config), num_threads)
            if not record.feasible:
                raise RuntimeError(
                    f"{config.value} infeasible for {per_node_gb:.1f} GB "
                    f"sub-problem: {record.infeasible_reason}"
                )
        assert record.metric is not None and record.run_result is not None
        compute_s = record.run_result.time_s
        builder = None
        for workload_type, candidate in COMMUNICATION_MODELS.items():
            if isinstance(workload, workload_type):
                builder = candidate
                break
        comm_s = (
            builder(workload, nodes).time_s(self.network, nodes)
            if builder is not None
            else 0.0
        )
        total_s = compute_s + comm_s
        slowdown = compute_s / total_s if total_s else 1.0
        return MultiNodeResult(
            nodes=nodes,
            per_node_gb=per_node_gb,
            config=record.config,
            compute_s=compute_s,
            communication_s=comm_s,
            per_node_metric=record.metric * slowdown,
            aggregate_metric=nodes * record.metric * slowdown,
        )
