"""The knobs of one prediction service: :class:`ServiceConfig`.

Its own module, apart from :mod:`repro.serve.service`, because the
shard router carries a service configuration to its replicas without
ever evaluating the model: importing this loads only the wire types.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.errors import ValidationError
from repro.api.types import MACHINE_NAMES

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Capacity and behaviour knobs of one service instance.

    The defaults suit an interactive what-if service; ``docs/SERVING.md``
    discusses how to tune them.
    """

    machine: str = "knl7210"
    #: Identity of this instance inside a sharded deployment
    #: (:mod:`repro.serve.shard`); surfaces on ``/healthz`` and
    #: ``/version`` so operators can tell replicas apart.  Empty for a
    #: standalone service.
    replica_id: str = ""
    #: Directory of the persistent ModelTables cache
    #: (:mod:`repro.engine.table_cache`).  When set, every worker
    #: predictor loads prebuilt tables on first touch, so a restarted
    #: service answers its first queries at steady-state speed instead of
    #: paying table construction (docs/SERVING.md, "warm starts").
    table_cache_dir: str | None = None
    max_batch: int = 256
    max_queue: int = 1024
    workers: int = 2
    cache_entries: int = 4096
    cache_ttl_s: float | None = 300.0
    default_deadline_s: float = 10.0
    max_request_queries: int = 4096
    drain_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.machine.lower() not in MACHINE_NAMES:
            raise ValidationError(
                f"unknown machine {self.machine!r}; expected one of "
                f"{', '.join(MACHINE_NAMES)}"
            )
        for name in ("max_batch", "max_queue", "workers", "max_request_queries"):
            if getattr(self, name) < 1:
                raise ValidationError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.cache_entries < 0:
            raise ValidationError(
                f"cache_entries must be >= 0, got {self.cache_entries}"
            )
        if self.cache_ttl_s is not None and self.cache_ttl_s <= 0:
            raise ValidationError(
                f"cache_ttl_s must be positive or None, got {self.cache_ttl_s}"
            )
        if self.default_deadline_s <= 0:
            raise ValidationError(
                f"default_deadline_s must be positive, got "
                f"{self.default_deadline_s}"
            )
