"""`repro.api` — the unified typed prediction API.

The single wire/Python contract every consumer speaks: the service and
its client (:mod:`repro.serve`), the CLI, the advisor, the placement
optimizer and the batch engine all route through the types
(:mod:`repro.api.types`), errors (:mod:`repro.api.errors`) and facade
(:mod:`repro.api.facade`) re-exported here.
"""

from repro._lazy import lazy_exports

#: Submodule -> the public names it defines.  Names resolve on first
#: access (PEP 562): importing :mod:`repro.api` loads none of its
#: submodules, and none of them loads model code at import time.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "envelope": ("error_envelope", "success_envelope"),
        "errors": (
            "ApiError", "CapacityError", "DeadlineExceededError",
            "EmptyMixError", "InfeasibleConfigError", "InfeasiblePlanError",
            "PlanError", "SchemaVersionError", "UnknownMachineError",
            "UnknownWorkloadError", "ValidationError", "error_from_info",
        ),
        "facade": (
            "Predictor", "compare_configs", "default_predictor",
            "evaluate_placements", "machine_preset", "predict", "predict_grid",
            "predict_many", "query_cache_key", "sized_workload",
        ),
        "plan": (
            "OBJECTIVES", "MachineLoad", "PlanAssignment", "PlanRequest",
            "PlanResult", "PoolEntry", "TrafficItem",
        ),
        "types": (
            "MACHINE_NAMES", "SCHEMA_VERSION", "SUPPORTED_SCHEMA_VERSIONS",
            "ErrorInfo", "PredictionResult", "Query", "QueryGrid",
            "check_schema_version",
        ),
    },
)
