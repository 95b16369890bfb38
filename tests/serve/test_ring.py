"""Property suite for the consistent-hash ring (tests/serve).

Three properties carry the sharded deployment (docs/SERVING.md):

* **balance** — with vnodes points per replica, keyspace shares
  concentrate near 1/N within a tolerance bound;
* **minimal remapping** — a membership change only remaps keys whose
  owner changed; every key owned by a surviving replica stays put;
* **process stability** — assignments depend only on SHA-256 of the
  key bytes, so two processes with different ``PYTHONHASHSEED`` agree
  on every placement (the property Python's randomized ``hash()``
  would silently break).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api.types import PAPER_TRIO, Query
from repro.serve.ring import DEFAULT_VNODES, HashRing, query_key, stable_point

pytestmark = pytest.mark.tier1

replica_ids = st.lists(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
    ),
    min_size=1,
    max_size=8,
    unique=True,
)

keys = st.lists(
    st.text(min_size=1, max_size=40), min_size=1, max_size=200, unique=True
)


def test_stable_point_is_sha256_prefix():
    import hashlib

    digest = hashlib.sha256(b"run:abc").digest()
    assert stable_point("run:abc") == int.from_bytes(digest[:8], "big")


def test_empty_ring_raises_and_prefers_nothing():
    ring = HashRing()
    with pytest.raises(LookupError):
        ring.assign("k")
    assert ring.preferences("k") == []
    assert ring.shares() == {}


def test_membership_is_idempotent():
    ring = HashRing(["a", "b"], vnodes=8)
    ring.add("a")
    ring.remove("missing")
    assert ring.replicas == frozenset({"a", "b"})
    assert len(ring) == 2


@given(replicas=replica_ids)
def test_shares_sum_to_one(replicas):
    ring = HashRing(replicas, vnodes=32)
    shares = ring.shares()
    assert set(shares) == set(replicas)
    assert sum(shares.values()) == pytest.approx(1.0)


@given(replicas=replica_ids)
def test_balance_within_tolerance(replicas):
    """Every replica owns between 1/(3N) and 3/N of the keyspace at the
    production vnode count — the bound the router's capacity planning
    assumes (DEFAULT_VNODES keeps real fleets much tighter)."""
    ring = HashRing(replicas, vnodes=DEFAULT_VNODES)
    n = len(replicas)
    for replica, share in ring.shares().items():
        assert share > 1.0 / (3.0 * n), (replica, share, n)
        assert share <= min(1.0, 3.0 / n), (replica, share, n)


@given(replicas=replica_ids, sample=keys)
def test_assign_matches_preferences_head(replicas, sample):
    ring = HashRing(replicas, vnodes=16)
    for key in sample:
        prefs = ring.preferences(key)
        assert prefs[0] == ring.assign(key)
        assert len(prefs) == len(set(prefs)) == len(replicas)
        limited = ring.preferences(key, 2)
        assert limited == prefs[: min(2, len(replicas))]


@given(replicas=replica_ids, sample=keys, joiner=st.text(min_size=1, max_size=12))
def test_join_only_steals_for_the_joiner(replicas, sample, joiner):
    """Adding a replica never moves a key between two old replicas."""
    if joiner in replicas:
        return
    before = HashRing(replicas, vnodes=16)
    after = HashRing(replicas + [joiner], vnodes=16)
    for key in sample:
        if after.assign(key) != joiner:
            assert after.assign(key) == before.assign(key)
    moved = before.remapped_keys(after, sample)
    assert all(after.assign(k) == joiner for k in moved)


@given(replicas=replica_ids, sample=keys)
def test_leave_only_remaps_the_leavers_keys(replicas, sample):
    """Removing a replica only remaps the keys it owned; everything else
    keeps its owner (the failover invariant: losing r must not shuffle
    traffic between survivors)."""
    if len(replicas) < 2:
        return
    leaver = sorted(replicas)[0]
    before = HashRing(replicas, vnodes=16)
    after = HashRing([r for r in replicas if r != leaver], vnodes=16)
    for key in sample:
        if before.assign(key) != leaver:
            assert after.assign(key) == before.assign(key)


@given(replicas=replica_ids, sample=keys)
def test_remove_then_readd_restores_layout(replicas, sample):
    if len(replicas) < 2:
        return
    ring = HashRing(replicas, vnodes=16)
    expected = {k: ring.assign(k) for k in sample}
    victim = sorted(replicas)[-1]
    ring.remove(victim)
    ring.add(victim)
    assert {k: ring.assign(k) for k in sample} == expected


@given(replicas=replica_ids)
def test_layout_is_order_insensitive(replicas):
    forward = HashRing(replicas, vnodes=16)
    backward = HashRing(list(reversed(replicas)), vnodes=16)
    probes = [f"probe:{i}" for i in range(64)]
    assert [forward.assign(k) for k in probes] == [
        backward.assign(k) for k in probes
    ]


_SUBPROCESS_PROGRAM = """\
import json, sys
from repro.serve.ring import HashRing
spec = json.load(sys.stdin)
ring = HashRing(spec["replicas"], vnodes=spec["vnodes"])
print(json.dumps({
    "assign": {k: ring.assign(k) for k in spec["keys"]},
    "preferences": {k: ring.preferences(k) for k in spec["keys"]},
}))
"""


def _ring_in_subprocess(spec: dict, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src_root = os.path.dirname(
        os.path.dirname(os.path.abspath(sys.modules["repro"].__file__))
    )
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_PROGRAM],
        input=json.dumps(spec),
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(proc.stdout)


def test_assignment_is_stable_across_hash_seeds():
    """The whole deployment rests on this: a router and a restarted
    replica (different ``PYTHONHASHSEED``, hence different ``hash()``)
    must derive identical ownership and failover order."""
    spec = {
        "replicas": ["r0", "r1", "r2", "r3"],
        "vnodes": DEFAULT_VNODES,
        "keys": [f"run:key-{i}" for i in range(50)],
    }
    local = HashRing(spec["replicas"], vnodes=spec["vnodes"])
    expected = {
        "assign": {k: local.assign(k) for k in spec["keys"]},
        "preferences": {k: local.preferences(k) for k in spec["keys"]},
    }
    for seed in ("0", "1", "12345"):
        assert _ring_in_subprocess(spec, seed) == expected, seed


def test_fresh_servebench_queries_split_evenly_over_two_replicas():
    """Wire keys balance like run keys did: 1,000 distinct point queries
    drawn as servebench's ``point-miss-routed`` draws them land 40-60%
    on each owner of a 2-replica ring."""
    rng = random.Random(911)
    ring = HashRing(["r0", "r1"])
    seen: set[Query] = set()
    owners: Counter[str] = Counter()
    while len(seen) < 1000:
        query = Query(
            rng.choice(("dgemm", "minife", "xsbench")),
            round(rng.uniform(0.5, 24.0), 3),
            rng.choice(PAPER_TRIO),
            rng.choice((32, 64)),
            rng.choice(("knl7210", "xeonmax9480")),
        )
        if query not in seen:
            seen.add(query)
            owners[ring.assign(query_key(query))] += 1
    assert all(400 <= owners[replica] <= 600 for replica in ("r0", "r1")), owners


def test_query_key_is_a_function_of_the_canonical_query():
    spellings = [
        Query("GUPS", 4, "cache", 64, "KNL7210"),
        Query("gups", 4.0, "Cache Mode"),
    ]
    assert spellings[0] == spellings[1]
    assert query_key(spellings[0]) == query_key(spellings[1])
    assert query_key(spellings[0]) == "gups|4.0|Cache Mode|64|knl7210"
    assert query_key(Query("gups", 4.000001, "Cache Mode")) != query_key(
        spellings[0]
    )
