"""Pinned run-cache keys.

The on-disk run cache (``--cache-dir``) stores each record as
``<key>.json``, where the key is the sha256 content address of the
sweep cell (:func:`repro.core.executor.cache_key`).  The shard router
places queries on replicas by the same key.  A change to the key's
canonical form would silently orphan every existing cache directory and
move every key to another replica, so the digests of a few fixed cells
are pinned here: a deliberate format change must update them.
"""

from __future__ import annotations

import pytest

from repro.api import Predictor
from repro.api.types import Query
from repro.core.executor import SweepExecutor, cache_key

#: (machine, workload, size_gb, config, num_threads) -> unchecked key.
PINNED = {
    ("knl7210", "dgemm", 4.0, "HBM", 64): (
        "407b3c14cfda977eaadc4d49da7bb5eeecfae8a7ec5a3c5290ebd7433b1bb559"
    ),
    ("knl7210", "gups", 16.0, "DRAM", 64): (
        "2a8447c402371c473573b784e8c59d8a7b3e4ee623b41d1bdd991e60fe720ccb"
    ),
    ("xeonmax9480", "dgemm", 8.0, "HBM", 56): (
        "612db4f417ff43b6c08fd836fc0ddc032581e1bdd474b163f9ebe8c64126b8d2"
    ),
    ("xeonmax9480", "gups", 16.0, "Cache Mode", 56): (
        "667bd7df89fe1033a45df128474afaa39a52435374c1fe1a1db9d3ee96d4228e"
    ),
}

#: The first cell's key under ``--check raise``.
PINNED_CHECKED = "3f27d4bacf8bb72fdcaefa8474d380aecf4c6c07d7476c289960f15a555da080"


def _query(cell: tuple) -> Query:
    machine, workload, size_gb, config, num_threads = cell
    return Query(
        workload=workload,
        size_gb=size_gb,
        config=config,
        num_threads=num_threads,
        machine=machine,
    )


@pytest.mark.parametrize("cell", list(PINNED), ids=lambda c: "-".join(map(str, c)))
def test_run_cache_key_is_pinned(cell):
    predictor = Predictor(machine=cell[0])
    query = _query(cell)
    assert predictor.cache_key(query) == PINNED[cell]
    # The memo-free module function agrees with the memoized path.
    resolved = predictor.resolve(query)
    assert (
        cache_key(
            predictor.machine(cell[0]),
            resolved.workload,
            resolved.config,
            resolved.num_threads,
        )
        == PINNED[cell]
    )


def test_checked_key_is_pinned():
    cell = next(iter(PINNED))
    predictor = Predictor(machine=cell[0])
    resolved = predictor.resolve(_query(cell))
    key = cache_key(
        predictor.machine(cell[0]),
        resolved.workload,
        resolved.config,
        resolved.num_threads,
        check="raise",
    )
    assert key == PINNED_CHECKED


def test_on_disk_record_is_named_by_the_pinned_key(tmp_path):
    cell = next(iter(PINNED))
    resolved = Predictor(machine=cell[0]).resolve(_query(cell))
    SweepExecutor(cache_dir=tmp_path).run_cells([resolved])
    assert [p.name for p in tmp_path.glob("*.json")] == [f"{PINNED[cell]}.json"]
