"""Every registered invariant is exercised at least once.

An invariant that is never applicable anywhere is dead weight — or,
worse, a typo'd condition silently skipping the law it was written for.
This module drives a small battery (two size sweeps, a thread sweep and
the latency exhibit) through a collecting checker and asserts the union
of evaluated invariant names equals the full registry, so adding an
invariant without a subject that triggers it fails the suite.
"""

from __future__ import annotations

import pytest

from repro.checks.checker import CheckingRunner, check_exhibit
from repro.checks.invariants import REGISTRY, Scope
from repro.core.executor import SweepExecutor
from repro.core.sweep import size_sweep, thread_sweep
from repro.figures import EXHIBITS
from repro.workloads.registry import FROM_GB


@pytest.fixture(scope="module")
def battery():
    """One collecting checker driven across all three scopes."""
    violations = []
    runner = CheckingRunner(collect=violations)
    executor = SweepExecutor(runner)
    # Sequential workload across the capacity boundary: streaming
    # ordering, byte conservation, cache accounting, capacity laws.
    size_sweep(executor, FROM_GB["minife"], [4.0, 34.0], num_threads=64)
    # Random workload: TLB accounting and the DRAM preference.
    size_sweep(executor, FROM_GB["gups"], [1.0, 20.0], num_threads=64)
    # Thread axis: unimodal scaling.
    thread_sweep(executor, FROM_GB["gups"](1.0), [64, 128, 256])
    # Exhibit scope: the latency figure carries both exhibit invariants.
    generate = EXHIBITS["fig3"]
    try:
        exhibit = generate(executor)
    except TypeError:
        exhibit = generate()
    runner.handle_report(check_exhibit(exhibit))
    return runner, violations


def test_battery_is_clean(battery):
    runner, violations = battery
    assert not violations, [v.describe() for v in violations]
    assert runner.runs_checked > 0


def test_every_invariant_evaluated_at_least_once(battery):
    runner, _ = battery
    missing = set(REGISTRY) - runner.evaluated_names
    assert not missing, (
        f"invariants never exercised by the battery: {sorted(missing)} — "
        "either extend the battery or the invariant's applicability is broken"
    )


def test_battery_does_not_evaluate_unregistered_names(battery):
    runner, _ = battery
    assert runner.evaluated_names <= set(REGISTRY)


def test_registry_scope_counts_match_catalogue():
    # docs/TESTING.md documents the registry; keep the shape pinned so the
    # catalogue cannot silently drift from the code.
    by_scope = {scope: 0 for scope in Scope}
    for inv in REGISTRY.values():
        by_scope[inv.scope] += 1
    assert by_scope[Scope.RUN] >= 5
    assert by_scope[Scope.SWEEP] >= 3
    assert by_scope[Scope.EXHIBIT] >= 2
    assert len(REGISTRY) >= 11
