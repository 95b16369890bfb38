"""End-to-end determinism: the whole study must be a pure function of the
seed and the models (no wall-clock, no hidden state)."""

from repro.core.report import generate_report
from repro.core.runner import ExperimentRunner
from repro.figures.fig4 import generate_b
from repro.workloads import Graph500, MiniFE


class TestDeterminism:
    def test_report_identical_across_runs(self, runner):
        first = generate_report(runner).render()
        second = generate_report(runner).render()
        assert first == second

    def test_fresh_runner_identical(self, machine):
        a = generate_b(ExperimentRunner(machine)).data
        b = generate_b(ExperimentRunner(machine)).data
        assert a == b

    def test_functional_runs_seeded(self):
        a = Graph500(scale=7, n_roots=3).execute(seed=99)
        b = Graph500(scale=7, n_roots=3).execute(seed=99)
        assert a.details["edges_traversed"] == b.details["edges_traversed"]

    def test_runner_has_no_cross_run_state(self, runner):
        w = MiniFE.from_matrix_gb(3.6)
        from repro.core.configs import ConfigName

        first = runner.run(w, ConfigName.HBM, 64).metric
        for _ in range(3):
            assert runner.run(w, ConfigName.HBM, 64).metric == first
