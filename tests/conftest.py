"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core.executor import executor_from_env
from repro.core.runner import ExperimentRunner
from repro.engine.perfmodel import PerformanceModel
from repro.machine.presets import knl7210
from repro.memory.modes import MCDRAMConfig, MemorySystem
from repro.runtime.simos import SimulatedOS

# Pinned hypothesis profile: derandomized (examples derive from the test
# body, not a random seed) so property runs — including the metamorphic
# suite in tests/checks/ — are bit-for-bit reproducible locally and in
# CI.  Override with HYPOTHESIS_PROFILE (e.g. a personal "dev" profile
# registered in a local conftest) when hunting for new counterexamples.
settings.register_profile(
    "repro", derandomize=True, deadline=None, max_examples=25
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


@pytest.fixture(scope="session")
def machine():
    """The paper's testbed machine model (immutable, session-scoped)."""
    return knl7210()


@pytest.fixture()
def flat_memory():
    return MemorySystem(MCDRAMConfig.flat())


@pytest.fixture()
def cache_memory():
    return MemorySystem(MCDRAMConfig.cache())


@pytest.fixture()
def hybrid_memory():
    return MemorySystem(MCDRAMConfig.hybrid(0.5))


@pytest.fixture()
def flat_model(machine, flat_memory):
    return PerformanceModel(machine, flat_memory)


@pytest.fixture()
def cache_model_pm(machine, cache_memory):
    return PerformanceModel(machine, cache_memory)


@pytest.fixture()
def flat_os():
    return SimulatedOS(MCDRAMConfig.flat())


@pytest.fixture()
def cache_os():
    return SimulatedOS(MCDRAMConfig.cache())


@pytest.fixture(scope="session")
def runner(machine):
    """The experiment runner — wrapped in a SweepExecutor when the
    REPRO_CACHE_DIR / REPRO_TABLE_CACHE / REPRO_CHECK environment
    variables are set."""
    return executor_from_env(ExperimentRunner(machine))
