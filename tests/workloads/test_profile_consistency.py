"""Cross-checks between the workloads' two faces.

The profiled face predicts from structural formulas; the functional face
builds the actual data structures.  These tests confirm the formulas
describe the structures — the foundation of the claim that the
performance engine's inputs come from the algorithms, not hand-tuning.
"""

import pytest

from repro.workloads import (
    DGEMM,
    GUPS,
    Graph500,
    MiniFE,
    StreamBenchmark,
    TinyMemBench,
    XSBench,
)
from repro.workloads.graph500.bfs import build_adjacency
from repro.workloads.graph500.kronecker import kronecker_edges
from repro.workloads.minife.assembly import assemble_stiffness
from repro.workloads.xsbench.grids import build_nuclide_grids, build_unionized_grid

ALL_SMALL = [
    StreamBenchmark(size_bytes=3 * 8 * 1024),
    TinyMemBench(block_bytes=64 * 256),
    DGEMM(n=64),
    GUPS(log2_entries=10),
    MiniFE(nx=6),
    Graph500(scale=8),
    XSBench.small(),
]


class TestProfileInvariants:
    @pytest.mark.parametrize("workload", ALL_SMALL, ids=lambda w: w.spec.name)
    def test_profile_footprint_matches_workload(self, workload):
        assert workload.profile().footprint_bytes <= workload.footprint_bytes
        # The dominant phase must cover a meaningful share of the footprint.
        assert workload.profile().footprint_bytes >= 0.1 * workload.footprint_bytes

    @pytest.mark.parametrize("workload", ALL_SMALL, ids=lambda w: w.spec.name)
    def test_profile_traffic_positive(self, workload):
        assert workload.profile().total_traffic_bytes > 0

    @pytest.mark.parametrize("workload", ALL_SMALL, ids=lambda w: w.spec.name)
    def test_profile_deterministic(self, workload):
        a = workload.profile()
        b = workload.profile()
        assert a == b

    @pytest.mark.parametrize("workload", ALL_SMALL, ids=lambda w: w.spec.name)
    def test_pattern_matches_table1(self, workload):
        dominant = workload.profile().dominant_pattern.value
        assert dominant == workload.spec.pattern.lower()


class TestStructuralFormulas:
    def test_minife_nnz_formula_exact(self):
        for nx in (3, 5, 8):
            assembled = assemble_stiffness(MiniFE(nx=nx).mesh)
            assert assembled.nnz == MiniFE(nx=nx).nnz

    def test_graph500_csr_entries_bounded_by_model(self):
        """The profile charges 2 entries per input edge; real CSR loses
        self-loops and duplicates, so it must be below but commensurate."""
        w = Graph500(scale=9)
        edges = kronecker_edges(w.params_kron, seed=5)
        graph = build_adjacency(edges, w.n_vertices)
        assert graph.nnz <= w.directed_entries
        assert graph.nnz >= 0.5 * w.directed_entries

    def test_xsbench_union_size_formula(self):
        w = XSBench.small(n_nuclides=9, n_gridpoints=33)
        grids = build_nuclide_grids(w.xs_params, seed=1)
        union = build_unionized_grid(grids)
        assert union.n_union == w.xs_params.union_points
        assert union.index.nbytes == union.n_union * 9 * 4

    def test_gups_traffic_formula(self):
        w = GUPS(log2_entries=10, updates=500)
        phase = w.profile().phases[0]
        assert phase.traffic_bytes == 2 * 8 * 500
        assert phase.accesses == 1000

    def test_stream_triad_traffic_is_three_arrays(self):
        w = StreamBenchmark(size_bytes=3 * 8 * 1000, ntimes=1)
        assert w.profile().phases[0].traffic_bytes == w.footprint_bytes

    def test_dgemm_traffic_scales_cubically(self):
        """Doubling n multiplies traffic ~8x (the n^2 C-matrix term keeps
        the ratio slightly below 8 at small n)."""
        t1 = DGEMM(n=1000).profile().phases[0].traffic_bytes
        t2 = DGEMM(n=2000).profile().phases[0].traffic_bytes
        assert 7.5 <= t2 / t1 <= 8.0
