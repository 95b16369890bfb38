"""Benchmark harness fixtures.

Every bench regenerates one paper exhibit (or ablation), asserts its key
shape, and writes the reproduced rows/series to ``benchmarks/output/`` so
the numbers the paper reports can be inspected after a run.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.executor import executor_from_env
from repro.core.runner import ExperimentRunner

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def runner():
    """Plain runner by default; set REPRO_CACHE_DIR to regenerate
    exhibits through the memoizing executor (outputs are byte-identical
    either way)."""
    return executor_from_env(ExperimentRunner())


@pytest.fixture(scope="session")
def record_exhibit():
    """Writer: record_exhibit(exhibit) -> path of the text dump."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _record(exhibit) -> pathlib.Path:
        path = OUTPUT_DIR / f"{exhibit.exhibit_id}.txt"
        path.write_text(exhibit.render() + "\n")
        return path

    return _record


@pytest.fixture(scope="session")
def record_text():
    """Writer for non-Exhibit ablation output."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _record(name: str, text: str) -> pathlib.Path:
        path = OUTPUT_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        return path

    return _record
