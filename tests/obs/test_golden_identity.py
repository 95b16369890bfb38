"""Tracing on ⇒ every exhibit byte-identical to its golden output.

The observability layer's core promise (docs/OBSERVABILITY.md): an
active session may watch the pipeline but must never perturb it.  Every
exhibit is rendered under a live observation session and diffed against
the same ``benchmarks/output`` dumps the plain golden suite uses
(``tests/figures/test_golden_outputs.py``).
"""

from __future__ import annotations

import pathlib

import pytest

from repro import obs
from repro.core.runner import ExperimentRunner
from repro.figures import EXHIBITS

GOLDEN_DIR = pathlib.Path(__file__).parent.parent.parent / "benchmarks" / "output"


def _normalize(text: str) -> str:
    return "\n".join(line.rstrip() for line in text.splitlines()).rstrip() + "\n"


@pytest.fixture(scope="module")
def rendered_under_observation():
    """Render every exhibit inside one observation session."""
    runner = ExperimentRunner()
    out = {}
    with obs.observe() as session:
        for exhibit_id, generate in EXHIBITS.items():
            out[exhibit_id] = generate(runner)
    # The session must have actually observed something — otherwise this
    # suite would pass vacuously with instrumentation unplugged.
    assert len(session.spans()) > 0
    assert session.metrics.counter_value("model.runs") > 0
    return out


@pytest.mark.parametrize("exhibit_id", sorted(EXHIBITS))
def test_exhibit_identical_under_tracing(rendered_under_observation, exhibit_id):
    golden = _normalize((GOLDEN_DIR / f"{exhibit_id}.txt").read_text())
    actual = _normalize(rendered_under_observation[exhibit_id].render())
    assert actual == golden, (
        f"{exhibit_id} drifted when rendered under an observation session — "
        f"instrumentation must never change model output"
    )
