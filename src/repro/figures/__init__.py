"""Generators for every table and figure in the paper.

Each module exposes ``generate(...) -> Exhibit``; the CLI and the
benchmark harness call these to print the same rows/series the paper
reports.  ``EXHIBITS`` maps exhibit ids ("fig2", "table1", "fig4a", ...)
to their generators.
"""

from repro.figures.common import Exhibit
from repro.figures.fig1 import generate as fig1
from repro.figures.table1 import generate as table1
from repro.figures.table2 import generate as table2
from repro.figures.fig2 import generate as fig2
from repro.figures.fig3 import generate as fig3
from repro.figures.fig4 import (
    generate_a as fig4a,
    generate_b as fig4b,
    generate_c as fig4c,
    generate_d as fig4d,
    generate_e as fig4e,
)
from repro.figures.fig5 import generate as fig5
from repro.figures.machines import generate as machines
from repro.figures.fig6 import (
    generate_a as fig6a,
    generate_b as fig6b,
    generate_c as fig6c,
    generate_d as fig6d,
)

EXHIBITS = {
    "table1": table1,
    "table2": table2,
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig4a": fig4a,
    "fig4b": fig4b,
    "fig4c": fig4c,
    "fig4d": fig4d,
    "fig4e": fig4e,
    "fig5": fig5,
    "fig6a": fig6a,
    "fig6b": fig6b,
    "fig6c": fig6c,
    "fig6d": fig6d,
    "machines": machines,
}

#: Exhibits drawn from the paper's KNL presets whatever machine they are
#: given: the hardware tables, the tile layout and the latency curve.
FIXED_TO_KNL = ("table1", "table2", "fig1", "fig3")

__all__ = ["Exhibit", "EXHIBITS", "FIXED_TO_KNL"] + list(EXHIBITS)
