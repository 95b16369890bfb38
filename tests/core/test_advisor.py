"""Placement advisor tests — the Section-VI recommendations must come out."""

import pytest

from repro.core.advisor import PlacementAdvisor
from repro.core.configs import ConfigName
from repro.workloads.graph500 import Graph500
from repro.workloads.gups import GUPS
from repro.workloads.minife import MiniFE
from repro.workloads.stream import StreamBenchmark
from repro.workloads.xsbench import XSBench


@pytest.fixture(scope="module")
def advisor(runner):
    return PlacementAdvisor(runner)


class TestRecommendations:
    def test_sequential_fitting_gets_hbm(self, advisor):
        rec = advisor.recommend(MiniFE.from_matrix_gb(7.2), 64)
        assert rec.best is ConfigName.HBM
        assert rec.expected_improvement_vs_dram > 2.5
        assert any(g.rule_id == "seq-fits-hbm" for g in rec.guidelines)

    def test_sequential_comparable_gets_cache(self, advisor):
        rec = advisor.recommend(
            StreamBenchmark(size_bytes=int(18e9)), 64
        )
        assert rec.best is ConfigName.CACHE

    def test_sequential_oversized_gets_dram(self, advisor):
        rec = advisor.recommend(StreamBenchmark(size_bytes=int(32e9)), 64)
        assert rec.best is ConfigName.DRAM

    def test_random_single_thread_gets_dram(self, advisor):
        rec = advisor.recommend(GUPS.from_table_gb(8.0), 64)
        assert rec.best is ConfigName.DRAM
        assert any(g.rule_id == "rand-single-thread" for g in rec.guidelines)

    def test_xsbench_flips_to_hbm_with_hyperthreads(self, advisor):
        """Fig. 6d: at 256 threads HBM becomes the best option."""
        at64 = advisor.recommend(XSBench.from_problem_gb(11.3), 64)
        at256 = advisor.recommend(XSBench.from_problem_gb(11.3), 256)
        assert at64.best is ConfigName.DRAM
        assert at256.best is ConfigName.HBM

    def test_graph500_stays_dram(self, advisor):
        """Graph500 'might not be able to completely hide the memory
        latency, hence DRAM still gives the best performance'."""
        rec = advisor.recommend(Graph500.from_graph_gb(8.8), 128)
        assert rec.best is ConfigName.DRAM

    def test_oversized_returns_feasible_best(self, advisor):
        rec = advisor.recommend(Graph500.from_graph_gb(35.0), 64)
        hbm_record = next(
            r for r in rec.records if r.config is ConfigName.HBM
        )
        assert not hbm_record.feasible
        assert rec.best in (ConfigName.DRAM, ConfigName.CACHE)

    def test_describe_lists_everything(self, advisor):
        rec = advisor.recommend(MiniFE.from_matrix_gb(3.6), 64)
        text = rec.describe()
        assert "MiniFE" in text
        assert "guideline" in text
        assert "DRAM" in text and "HBM" in text


class TestMachineCapacity:
    """Guidelines are judged against the advised machine's own HBM."""

    def test_xeon_max_rules_use_its_64_gib_hbm(self):
        from repro.core.runner import ExperimentRunner
        from repro.machine import registry
        from repro.workloads.dgemm import DGEMM

        advisor = PlacementAdvisor(ExperimentRunner(registry.build("xeonmax9480")))
        rec = advisor.recommend(DGEMM.from_array_gb(28.0), 64)
        # 28 GB fits the Xeon Max's 64 GiB of HBM: the model picks HBM and
        # the explanation agrees, instead of a 16 GiB "bind to DRAM".
        assert rec.best is ConfigName.HBM
        assert [g.rule_id for g in rec.guidelines] == ["seq-fits-hbm"]

    @pytest.mark.parametrize(
        "workload, threads",
        [
            (MiniFE.from_matrix_gb(7.2), 64),
            (StreamBenchmark(size_bytes=int(18e9)), 64),
            (StreamBenchmark(size_bytes=int(32e9)), 64),
            (GUPS.from_table_gb(8.0), 64),
            (XSBench.from_problem_gb(11.3), 256),
            (Graph500.from_graph_gb(35.0), 64),
        ],
    )
    def test_knl_rules_are_the_16_gib_ones(self, advisor, workload, threads):
        from repro.core.guidelines import applicable_guidelines

        rec = advisor.recommend(workload, threads)
        placement = advisor.runner.machine.place_threads(threads)
        # The KNL's MCDRAM is exactly the historical 16 GiB default.
        assert rec.guidelines == tuple(
            applicable_guidelines(
                workload.profile().dominant_pattern,
                workload.footprint_bytes,
                placement.max_threads_per_core,
            )
        )
