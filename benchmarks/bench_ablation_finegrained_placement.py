"""Ablation: fine-grained per-structure placement (the paper's future work).

Section VI: "In the future, we plan to investigate a finer-grained
approach in which we can apply our conclusions to individual data
structures."  Here MiniFE's structures are placed individually through
the memkind-style allocator: the bandwidth-hungry matrix goes to HBM, the
latency-sensitive gather vector to DRAM, and the small CG vectors to HBM.
For problems whose *matrix* fits HBM but whose total does not, this beats
every coarse configuration.
"""

from repro.engine.perfmodel import PerformanceModel
from repro.engine.placement import PlacementMix
from repro.memory.allocator import Kind
from repro.memory.modes import MCDRAMConfig
from repro.runtime.simos import SimulatedOS
from repro.core.configs import ConfigName
from repro.util.tables import TextTable
from repro.workloads.minife import MiniFE

MATRIX_GB = 15.5  # matrix alone fits HBM; matrix + vectors do not


def run_ablation(runner):
    workload = MiniFE.from_matrix_gb(MATRIX_GB)
    coarse = {
        name.value: runner.run(workload, name, 64).metric
        for name in ConfigName.paper_trio()
    }
    # Fine-grained: allocate each structure with its own memkind kind.
    sim_os = SimulatedOS(MCDRAMConfig.flat(), machine=runner.machine)
    with sim_os.allocation_scope():
        matrix = sim_os.malloc(
            "matrix", workload.matrix_bytes, kind=Kind.HBW_PREFERRED
        )
        vectors = sim_os.malloc(
            "cg-vectors", workload.vector_bytes, kind=Kind.HBW_PREFERRED
        )
        mixes = {
            "spmv-stream": PlacementMix.from_allocation_split(matrix.split),
            # The gather reads the x vector wherever the vectors landed.
            "spmv-gather": PlacementMix.from_allocation_split(vectors.split),
            "vector-ops": PlacementMix.from_allocation_split(vectors.split),
        }
        model = PerformanceModel(runner.machine, sim_os.memory)
        run = model.evaluate(workload.profile(), mixes, 64)
        fine = workload.metric(run)
        hbm_fraction = sim_os.allocator.hbm_fraction()
    return workload, coarse, fine, hbm_fraction


def test_ablation_finegrained_placement(benchmark, runner, record_text):
    workload, coarse, fine, hbm_fraction = benchmark(run_ablation, runner)
    table = TextTable(
        ["placement", "CG MFLOPS"],
        title=(
            f"Ablation: fine-grained memkind placement, MiniFE "
            f"{MATRIX_GB:g} GB matrix"
        ),
    )
    for name, value in coarse.items():
        table.add_row([name, "-" if value is None else f"{value:.4g}"])
    table.add_row(
        [f"fine-grained ({hbm_fraction:.0%} bytes in HBM)", f"{fine:.4g}"]
    )
    text = table.render()
    record_text("ablation_finegrained_placement", text)
    print(text)
    # Fine-grained placement must beat every coarse feasible configuration
    # at this size (the whole problem no longer fits HBM cleanly, but the
    # hot structures do).
    feasible = [v for v in coarse.values() if v is not None]
    assert fine >= max(feasible) * 0.99
    assert fine > coarse["DRAM"] * 2.0
