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

from repro._lazy import lazy_exports

__version__ = "1.1.0"

#: Subpackage -> the public names it defines (resolved on first access,
#: so ``import repro`` loads no subpackage; see :mod:`repro._lazy`).
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "core": (
            "ConfigName", "ExperimentRunner", "SweepExecutor",
            "PlacementAdvisor", "ResultSet", "RunRecord", "SystemConfig",
            "make_config", "size_sweep", "standard_configs", "thread_sweep",
        ),
        "engine": (
            "AccessPattern", "Location", "MemoryProfile", "PerformanceModel",
            "Phase", "PlacementMix",
        ),
        "machine": ("KNLMachine", "knl7210", "knl7250"),
        "memory": ("MCDRAMConfig", "MemoryMode", "MemorySystem"),
        "runtime": ("SimulatedOS",),
        "api": ("api", "Query", "QueryGrid", "PredictionResult", "Predictor"),
        "obs": ("obs", "Observation", "observe"),
    },
)
__all__.append("__version__")
