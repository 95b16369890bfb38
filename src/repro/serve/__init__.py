"""Prediction service layer: coalescing what-if serving over repro.api.

The package splits along the request path:

* :mod:`repro.serve.cache` — TTL+LRU result cache (the service keys it
  by the canonical wire :class:`~repro.api.types.Query`);
* :mod:`repro.serve.coalescer` — admission queue + one dispatcher that
  merges concurrent queries into dense batches;
* :mod:`repro.serve.config` — :class:`ServiceConfig`, the service's
  knobs (model-free, so the router can carry it);
* :mod:`repro.serve.service` — the protocol-independent service core
  (lifecycle, deadlines, metrics, endpoints);
* :mod:`repro.serve.http` — the zero-dependency asyncio HTTP front end;
* :mod:`repro.serve.client` — the stdlib client;
* :mod:`repro.serve.threadserver` — a background-thread server harness;
* :mod:`repro.serve.loadgen` — the closed-loop driver behind the CI
  smokes (the gated benchmark is ``servebench/`` at the repository
  root);

and, for the sharded multi-replica deployment:

* :mod:`repro.serve.ring` — the consistent-hash ring over wire query
  keys;
* :mod:`repro.serve.registry` — replica membership + health tracking;
* :mod:`repro.serve.shard` — the router, replica backends and
  deployment harness;
* :mod:`repro.serve.faults` — deterministic fault injection for the
  test harness.

See ``docs/SERVING.md`` for the wire protocol, capacity tuning and the
sharded-deployment design.
"""

from repro._lazy import lazy_exports

#: Submodule -> the public names it defines.  Resolved on first access
#: (:mod:`repro._lazy`): the router imports none of the service's model
#: code by importing this package.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "cache": ("TTLCache",),
        "coalescer": ("Coalescer",),
        "config": ("ServiceConfig",),
        "service": ("PredictionService",),
        "http": ("HttpServer", "DEFAULT_PORT"),
        "client": ("ServeClient",),
        "threadserver": ("ServerThread",),
        "ring": ("HashRing", "DEFAULT_VNODES", "stable_point", "query_key"),
        "registry": ("ReplicaInfo", "ReplicaSet", "ReplicaState"),
        "faults": ("FaultError", "FaultInjector"),
        "shard": (
            "ShardConfig", "ShardRouter", "ShardDeployment", "ThreadReplica",
            "ProcessReplica",
        ),
    },
)
