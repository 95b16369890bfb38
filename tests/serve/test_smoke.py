"""The closed-loop driver and the CI smoke harness, at test-sized scale."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import Predictor
from repro.serve.loadgen import (
    _partition,
    build_query_pool,
    run_smoke,
)


def test_query_pool_keys_are_pairwise_distinct():
    predictor = Predictor()
    pool = build_query_pool(96, predictor=predictor)
    keys = {predictor.cache_key(q) for q in pool}
    assert len(pool) == 96
    assert len(keys) == 96


def test_query_pool_shares_a_small_profile_basis():
    pool = build_query_pool(64)
    profiles = {(q.workload, q.size_gb) for q in pool}
    # Many queries, few (workload, size) profiles: the columnar engine's
    # table setup amortizes across the pool.
    assert len(profiles) <= 8


def test_partition_deals_round_robin_and_drops_empties():
    pool = build_query_pool(5)
    partitions = _partition(pool, 3)
    assert [len(p) for p in partitions] == [2, 2, 1]
    assert _partition(pool[:2], 8) == [[pool[0]], [pool[1]]]


@pytest.mark.slow
def test_run_smoke_passes_at_small_scale():
    report = run_smoke(
        clients=8, requests_per_client=2, workers=2, check_sample=4
    )
    assert report["phase"]["errors"] == 0
    assert report["phase"]["requests"] == 16
    assert report["identity"]["bit_identical"]
    assert report["violations"] == 0
    assert report["invariant_audited"] >= 1


def test_p99_bound_violation_fails_under_optimize():
    """``python -O`` strips ``assert``; the smoke's checks must survive it."""
    root = Path(__file__).resolve().parents[2]
    completed = subprocess.run(
        [
            sys.executable,
            "-O",
            str(root / "tools" / "serve_smoke.py"),
            "--clients",
            "2",
            "--requests-per-client",
            "2",
            "--check-sample",
            "1",
            "--p99-bound-ms",
            "0.001",
        ],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 1, completed.stderr
    assert "[serve-smoke] FAIL: p99" in completed.stderr
    assert "over bound 0.001 ms" in completed.stderr
