"""Memo-table oracle for :class:`repro.engine.batch.ModelTables`.

``ModelTables`` fills its memo tables through columnar ``*_many`` twins
of the scalar model, one bulk call per lookup.  The oracle walks every
memo of a used ``ModelTables`` and recomputes each entry with one
scalar model call for its key: the bulk fills must have stored exactly
those floats.
"""

from __future__ import annotations

from repro.engine.batch import ModelTables
from repro.engine.perfmodel import PerformanceModel


def _capacity_hit(cache, footprint: int) -> float:
    ratio = cache.footprint_ratio(footprint)
    return 1.0 if ratio <= 1.0 else 1.0 / ratio


def scalar_memo_mismatches(tables: ModelTables) -> list[tuple]:
    """Every memo entry that differs from its scalar call, as
    ``(memo, key, stored, scalar)`` tuples (empty when all agree)."""
    model = PerformanceModel(tables.model.machine, tables.model.memory)
    cache = model.memory.cache_model
    tlb = model.tlb
    checks = []
    for loc, memo in tables._seq_lat.items():
        checks.append(
            ("seq_lat", memo, lambda k, loc=loc: model.sequential_latency_ns(loc, k))
        )
    for (loc, wf), memo in tables._seq_cap.items():
        checks.append(
            (
                "seq_cap",
                memo,
                lambda k, loc=loc, wf=wf: model.sequential_bandwidth(
                    loc, k >> 3, k & 7, wf
                ),
            )
        )
    for loc, memo in tables._rand_lat.items():
        checks.append(
            ("rand_lat", memo, lambda k, loc=loc: model.random_latency_ns(loc, k))
        )
    for (loc, wf), memo in tables._rand_cap.items():
        checks.append(
            (
                "rand_cap",
                memo,
                lambda k, loc=loc, wf=wf: model.random_capacity_lines(loc, k, wf),
            )
        )
    for pattern, memo in tables._hit_rate.items():
        checks.append(
            ("hit_rate", memo, lambda k, p=pattern: cache.hit_rate(k, p))
        )
    checks.append(("cap_hit", tables._cap_hit, lambda k: _capacity_hit(cache, k)))
    checks.append(("tlb_l1", tables._tlb_l1, tlb.l1_miss_rate))
    checks.append(("tlb_l2", tables._tlb_l2, tlb.l2_miss_rate))
    checks.append(("tlb_depth", tables._tlb_depth, tlb.walk_depth))
    mismatches = []
    for name, memo, scalar in checks:
        for key, stored in memo.items():
            expected = scalar(key)
            if stored != expected:
                mismatches.append((name, key, stored, expected))
    return mismatches


def filled_memos(tables: ModelTables) -> set[str]:
    """Names of the memo tables holding at least one entry."""
    filled = {
        name
        for name, keyed in (
            ("seq_lat", tables._seq_lat),
            ("seq_cap", tables._seq_cap),
            ("rand_lat", tables._rand_lat),
            ("rand_cap", tables._rand_cap),
            ("hit_rate", tables._hit_rate),
        )
        if any(keyed.values())
    }
    filled.update(
        name
        for name, memo in (
            ("cap_hit", tables._cap_hit),
            ("tlb_l1", tables._tlb_l1),
            ("tlb_l2", tables._tlb_l2),
            ("tlb_depth", tables._tlb_depth),
        )
        if memo
    )
    return filled
