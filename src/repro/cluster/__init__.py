"""Multi-node cluster substrate.

The paper's testbed is a 12-node Cray cluster on the Aries interconnect
(Section III-A); all evaluated experiments are single-node, but the
Section IV-C discussion reasons about multi-node decompositions.  This
subpackage completes that analysis:

* :mod:`repro.cluster.interconnect` — an alpha-beta Aries model with the
  collectives the workloads need (halo exchange, allreduce, alltoall),
* :mod:`repro.cluster.multinode` — combine per-node simulated compute
  with communication time to size real multi-node runs.
"""

from repro.cluster.interconnect import AriesInterconnect
from repro.cluster.multinode import (
    CollectiveOp,
    CommunicationProfile,
    MultiNodeModel,
    MultiNodeResult,
)

__all__ = [
    "AriesInterconnect",
    "CollectiveOp",
    "CommunicationProfile",
    "MultiNodeModel",
    "MultiNodeResult",
]
