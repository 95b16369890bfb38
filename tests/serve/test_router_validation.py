"""The router validates the wire; the owners validate against the model.

The shard router holds no model, so a query the model rejects — an
unknown workload, more threads than the machine holds, a memory mode
the machine lacks — is reported by the replica that owns it.  Callers
must not be able to tell: every such request gets exactly the status,
code and message a standalone service gives, including a request whose
invalid queries land on different owners (the standalone error is the
first invalid query's, in submission order).
"""

from __future__ import annotations

from typing import Callable

import pytest

from repro.api.types import Query
from repro.serve.client import ServeClient
from repro.serve.config import ServiceConfig
from repro.serve.ring import HashRing, query_key
from repro.serve.shard import ShardConfig, ShardDeployment
from repro.serve.threadserver import ServerThread

SERVICE = ServiceConfig(workers=1, cache_ttl_s=None)

#: Query makers, one per way the model rejects a wire-valid query; the
#: index varies a field the error does not depend on being the same.
INVALID: dict[str, Callable[[int], Query]] = {
    "unknown-workload": lambda i: Query(f"nosuch{i}", 4.0, "DRAM"),
    "thread-capacity": lambda i: Query("gups", 4.0, "DRAM", 300 + i),
    "unsupported-mode": lambda i: Query(
        "gups", 1.0 + i, "Hybrid", 64, "xeonmax9480"
    ),
}


def _valid(i: int) -> Query:
    return Query("gups", 1.0 + i, "DRAM")


@pytest.fixture(scope="module")
def fronts():
    """(service address, router address, the router's ring)."""
    deployment = ShardDeployment(
        ShardConfig(replicas=2, service=SERVICE, probe_interval_s=0.0)
    )
    with ServerThread(SERVICE) as service, deployment as router:
        yield (service.host, service.port), router, deployment.replicas.ring()


def _owned_by(ring: HashRing, owner: str, make: Callable[[int], Query]) -> Query:
    return next(
        q for q in map(make, range(1000)) if ring.assign(query_key(q)) == owner
    )


def _error(address, queries: list[Query]) -> tuple[int, str, str]:
    with ServeClient(*address, timeout=60.0) as client:
        status, envelope = client.request(
            "POST", "/v1/predict", {"queries": [q.to_dict() for q in queries]}
        )
    return status, envelope["error"]["code"], envelope["error"]["message"]


@pytest.mark.parametrize("kind", list(INVALID))
def test_semantic_errors_come_back_from_the_owner(fronts, kind):
    service, router, _ = fronts
    queries = [INVALID[kind](0)]
    assert _error(router, queries) == _error(service, queries)


@pytest.mark.parametrize(
    "first, second",
    [(a, b) for a in INVALID for b in INVALID if a != b],
)
@pytest.mark.parametrize("first_owner", ["other", "query-0"])
def test_first_invalid_query_decides_across_owners(
    fronts, first, second, first_owner
):
    """Query 0 (valid) and the two invalid queries span both owners;
    each owner alone would report its own invalid query."""
    service, router, ring = fronts
    home, other = "r0", "r1"
    if ring.assign(query_key(_valid(0))) != home:
        home, other = other, home
    queries = [
        _valid(0),
        _owned_by(ring, other if first_owner == "other" else home, INVALID[first]),
        _owned_by(ring, home if first_owner == "other" else other, INVALID[second]),
    ]
    expected = _error(service, queries)
    assert _error(router, queries) == expected
    assert expected[2] == _error(service, queries[1:2])[2]
