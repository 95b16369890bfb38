#!/usr/bin/env python
"""Fine-grained per-structure placement with the memkind-style allocator.

The paper's future-work section proposes applying its conclusions "to
individual data structures".  This example places MiniFE's structures one
by one (matrix -> HBM, everything else where it helps) and compares
against the three coarse configurations.

Run:  python examples/finegrained_placement.py
"""

from repro import ConfigName, ExperimentRunner
from repro.engine.perfmodel import PerformanceModel
from repro.engine.placement import PlacementMix
from repro.memory.allocator import Kind
from repro.memory.modes import MCDRAMConfig
from repro.runtime.simos import SimulatedOS
from repro.workloads import MiniFE


def main() -> None:
    # A problem whose matrix (15.5 GB) fits HBM but whose total (matrix +
    # CG vectors) does not — exactly where structure-level placement pays.
    workload = MiniFE.from_matrix_gb(15.5)
    runner = ExperimentRunner()

    print(f"{workload.describe()}")
    print(
        f"  matrix {workload.matrix_bytes / 1e9:.1f} GB, "
        f"vectors {workload.vector_bytes / 1e9:.1f} GB\n"
    )

    print("coarse configurations (the paper's three):")
    for config in ConfigName.paper_trio():
        record = runner.run(workload, config, 64)
        value = "-" if record.metric is None else f"{record.metric / 1e6:.0f}"
        print(f"  {config.value:<12} {value:>8} CG MFLOPS")

    # Fine-grained: one memkind allocation per structure.
    sim_os = SimulatedOS(MCDRAMConfig.flat())
    with sim_os.allocation_scope():
        matrix = sim_os.malloc(
            "stiffness-matrix", workload.matrix_bytes, kind=Kind.HBW_PREFERRED
        )
        vectors = sim_os.malloc(
            "cg-vectors", workload.vector_bytes, kind=Kind.HBW_PREFERRED
        )
        print("\nfine-grained allocations (memkind):")
        for allocation in (matrix, vectors):
            placed = ", ".join(
                f"node {n}: {b / 1e9:.1f} GB"
                for n, b in sorted(allocation.split.items())
            )
            print(f"  {allocation.name:<18} {placed}")

        mixes = {
            "spmv-stream": PlacementMix.from_allocation_split(matrix.split),
            "spmv-gather": PlacementMix.from_allocation_split(vectors.split),
            "vector-ops": PlacementMix.from_allocation_split(vectors.split),
        }
        model = PerformanceModel(runner.machine, sim_os.memory)
        run = model.evaluate(workload.profile(), mixes, 64)
        print(
            f"\n  fine-grained            {workload.metric(run) / 1e6:.0f} "
            f"CG MFLOPS  "
            f"({sim_os.allocator.hbm_fraction():.0%} of bytes in HBM)"
        )


if __name__ == "__main__":
    main()
