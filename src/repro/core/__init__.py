"""The paper's experimental methodology as a library.

This package is the reproduction's primary public surface: the three
memory configurations of Section III-C, the experiment runner that
executes workloads under them (handling capacity failures exactly like
the testbed), size/thread sweeps, result sets, and the Section-VI
placement advisor.

Typical use::

    from repro.core import ExperimentRunner, standard_configs
    from repro.workloads import MiniFE

    runner = ExperimentRunner()
    records = [
        runner.run(MiniFE.from_matrix_gb(7.2), config, num_threads=64)
        for config in standard_configs()
    ]
"""

from repro._lazy import lazy_exports

#: Submodule -> the public names it defines, resolved on first access
#: (:mod:`repro._lazy`), so that importing one submodule, say
#: ``repro.core.configs``, does not import the executor — and with it the
#: engine and the checks, which import ``repro.core`` submodules back.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "configs": (
            "ConfigName", "SystemConfig", "standard_configs", "make_config",
        ),
        "runner": ("ExperimentRunner", "RunRecord"),
        "executor": (
            "ExecutorStats", "RunCache", "SweepCell", "SweepExecutor",
            "as_executor", "cache_key", "executor_from_env",
        ),
        "results": ("ResultSet", "Series"),
        "sweep": ("resolve_configs", "size_sweep", "thread_sweep"),
        "metrics": ("Metric", "improvement", "harmonic_mean"),
        "advisor": ("PlacementAdvisor", "Recommendation"),
        "decomposition": (
            "NodeCount", "decompose", "hbm_knee", "parallel_efficiency",
            "sweep_node_counts",
        ),
        "guidelines": ("GUIDELINES", "Guideline", "applicable_guidelines"),
        "placement_optimizer": (
            "OptimizedPlacement", "PlacementOptimizer", "Structure",
            "structures_for",
        ),
        "sensitivity": (
            "ConclusionCheck", "SensitivityAnalysis", "default_perturbations",
            "paper_conclusions",
        ),
    },
)
