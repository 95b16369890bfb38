"""knl-hybridmem: hybrid-memory (MCDRAM + DDR4) performance study toolkit.

A full reproduction of Peng et al., "Exploring the Performance Benefit of
Hybrid Memory System on HPC Environments" (2017), built as a library:

* :mod:`repro.machine` — the KNL compute model (cores, tiles, mesh, caches),
* :mod:`repro.memory` — DDR4/MCDRAM devices, flat/cache/hybrid modes,
  NUMA, numactl/memkind emulation, the direct-mapped MCDRAM cache model,
* :mod:`repro.runtime` — the simulated OS (numactl, OpenMP environment),
* :mod:`repro.engine` — the Little's-law analytic performance engine,
* :mod:`repro.workloads` — STREAM, TinyMemBench, DGEMM, MiniFE, GUPS,
  Graph500 and XSBench, each functional *and* profiled,
* :mod:`repro.core` — configurations, the experiment runner, sweeps,
  results and the Section-VI placement advisor,
* :mod:`repro.figures` — generators for every table/figure in the paper,
* :mod:`repro.obs` — structured observability: span tracing, a metrics
  registry surfacing the model internals (bytes moved, cache hit/conflict
  counts, TLB walks, concurrency), and per-cell sweep profiling hooks,
* :mod:`repro.api` — the unified typed prediction API: frozen
  :class:`~repro.api.types.Query` / :class:`~repro.api.types.QueryGrid` /
  :class:`~repro.api.types.PredictionResult` wire types, the typed error
  taxonomy, and the :class:`~repro.api.facade.Predictor` facade every
  entry point routes through,
* :mod:`repro.serve` — the asyncio prediction service: request
  coalescing into dense batches, TTL result caching, admission control,
  an HTTP front end plus a stdlib client (see ``docs/SERVING.md``).

Quickstart::

    from repro import ExperimentRunner, ConfigName
    from repro.workloads import MiniFE

    runner = ExperimentRunner()
    for config in ConfigName.paper_trio():
        record = runner.run(MiniFE.from_matrix_gb(7.2), config, 64)
        print(config.value, record.metric)
"""

from repro.core import (
    ConfigName,
    ExperimentRunner,
    PlacementAdvisor,
    ResultSet,
    RunRecord,
    SweepExecutor,
    SystemConfig,
    make_config,
    size_sweep,
    standard_configs,
    thread_sweep,
)
from repro.engine import (
    AccessPattern,
    Location,
    MemoryProfile,
    PerformanceModel,
    Phase,
    PlacementMix,
)
from repro import api, obs
from repro.api import PredictionResult, Predictor, Query, QueryGrid
from repro.machine import KNLMachine, knl7210, knl7250
from repro.memory import MCDRAMConfig, MemoryMode, MemorySystem
from repro.obs import Observation, observe
from repro.runtime import SimulatedOS

__version__ = "1.1.0"

__all__ = [
    "ConfigName",
    "ExperimentRunner",
    "SweepExecutor",
    "PlacementAdvisor",
    "ResultSet",
    "RunRecord",
    "SystemConfig",
    "make_config",
    "size_sweep",
    "standard_configs",
    "thread_sweep",
    "AccessPattern",
    "Location",
    "MemoryProfile",
    "PerformanceModel",
    "Phase",
    "PlacementMix",
    "KNLMachine",
    "knl7210",
    "knl7250",
    "MCDRAMConfig",
    "MemoryMode",
    "MemorySystem",
    "SimulatedOS",
    "api",
    "Query",
    "QueryGrid",
    "PredictionResult",
    "Predictor",
    "obs",
    "Observation",
    "observe",
    "__version__",
]
