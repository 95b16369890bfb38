"""Golden-figure regression suite.

Renders every exhibit and diffs it against the checked-in
``benchmarks/output/<id>.txt`` dumps (modulo trailing whitespace), so a
performance refactor — caching, batch dispatch, engine rework —
cannot silently change the numbers the reproduction reports for the
paper.  Regenerate the goldens with ``pytest benchmarks/`` after an
*intentional* model change.
"""

import pathlib

import pytest

from repro.figures import EXHIBITS

GOLDEN_DIR = pathlib.Path(__file__).parent.parent.parent / "benchmarks" / "output"


def _normalize(text: str) -> str:
    """Trailing whitespace (per line and at EOF) is not part of the contract."""
    return "\n".join(line.rstrip() for line in text.splitlines()).rstrip() + "\n"


@pytest.fixture(scope="module")
def rendered(runner):
    """Render every exhibit once through the shared runner/executor."""
    return {
        exhibit_id: generate(runner) for exhibit_id, generate in EXHIBITS.items()
    }


@pytest.mark.parametrize("exhibit_id", sorted(EXHIBITS))
def test_exhibit_matches_golden(rendered, exhibit_id):
    golden_path = GOLDEN_DIR / f"{exhibit_id}.txt"
    assert golden_path.exists(), (
        f"missing golden {golden_path}; run `pytest benchmarks/` to create it"
    )
    golden = _normalize(golden_path.read_text())
    actual = _normalize(rendered[exhibit_id].render())
    assert actual == golden, (
        f"{exhibit_id} drifted from its golden output; if the model change "
        f"is intentional, regenerate with `pytest benchmarks/`"
    )


def test_every_exhibit_has_a_golden():
    missing = [e for e in EXHIBITS if not (GOLDEN_DIR / f"{e}.txt").exists()]
    assert not missing


def test_parallel_executor_matches_goldens(machine):
    """The acceptance check: fig2 and fig6a through an explicit executor
    (cache plus batch dispatch) are byte-identical to the checked-in
    outputs."""
    from repro.core.executor import SweepExecutor
    from repro.core.runner import ExperimentRunner
    from repro.figures.fig2 import generate as fig2
    from repro.figures.fig6 import generate_a as fig6a

    executor = SweepExecutor(ExperimentRunner(machine))
    for exhibit_id, generate in (("fig2", fig2), ("fig6a", fig6a)):
        golden = (GOLDEN_DIR / f"{exhibit_id}.txt").read_text()
        assert generate(executor).render() + "\n" == golden
    assert executor.stats().executed > 0
