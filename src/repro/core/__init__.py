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

from repro.core.configs import (
    ConfigName,
    SystemConfig,
    standard_configs,
    make_config,
)
from repro.core.runner import ExperimentRunner, RunRecord
from repro.core.executor import (
    ExecutorStats,
    RunCache,
    SweepCell,
    SweepExecutor,
    as_executor,
    cache_key,
    executor_from_env,
)
from repro.core.results import ResultSet, Series
from repro.core.sweep import resolve_configs, size_sweep, thread_sweep
from repro.core.metrics import Metric, improvement, harmonic_mean
from repro.core.advisor import PlacementAdvisor, Recommendation
from repro.core.decomposition import (
    NodeCount,
    decompose,
    hbm_knee,
    parallel_efficiency,
    sweep_node_counts,
)
from repro.core.guidelines import GUIDELINES, Guideline, applicable_guidelines
from repro.core.placement_optimizer import (
    OptimizedPlacement,
    PlacementOptimizer,
    Structure,
    structures_for,
)
from repro.core.sensitivity import (
    ConclusionCheck,
    SensitivityAnalysis,
    default_perturbations,
    paper_conclusions,
)

__all__ = [
    "ConfigName",
    "SystemConfig",
    "standard_configs",
    "make_config",
    "ExperimentRunner",
    "RunRecord",
    "ExecutorStats",
    "RunCache",
    "SweepCell",
    "SweepExecutor",
    "as_executor",
    "cache_key",
    "executor_from_env",
    "ResultSet",
    "Series",
    "resolve_configs",
    "size_sweep",
    "thread_sweep",
    "Metric",
    "improvement",
    "harmonic_mean",
    "PlacementAdvisor",
    "Recommendation",
    "NodeCount",
    "decompose",
    "hbm_knee",
    "parallel_efficiency",
    "sweep_node_counts",
    "GUIDELINES",
    "Guideline",
    "applicable_guidelines",
    "OptimizedPlacement",
    "PlacementOptimizer",
    "Structure",
    "structures_for",
    "ConclusionCheck",
    "SensitivityAnalysis",
    "default_perturbations",
    "paper_conclusions",
]
