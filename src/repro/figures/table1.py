"""Table I: list of evaluated applications."""

from __future__ import annotations

from repro.figures.common import Exhibit
from repro.workloads.registry import render_table1, table1_rows


def generate(runner: "object | None" = None) -> Exhibit:
    """``runner`` is ignored: this exhibit does not depend on the machine."""
    del runner
    return Exhibit(
        exhibit_id="table1",
        title="List of Evaluated Applications",
        text=render_table1(),
        data={"rows": table1_rows()},
        paper_expectation=(
            "DGEMM/MiniFE sequential (24/30 GB max); GUPS/Graph500/XSBench "
            "random (32/35/90 GB max)"
        ),
    )
