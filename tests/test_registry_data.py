"""Registry names held as data must equal the registries they mirror.

The wire types (:mod:`repro.api.types`) and the CLI parser hold these
names as literal tuples so that the shard router, which imports both,
loads no model code.  Each tuple is pinned here to its registry.
"""

from __future__ import annotations

from repro import cli
from repro.api.types import CONFIG_NAMES, MACHINE_NAMES, PAPER_TRIO
from repro.core.configs import ConfigName
from repro.figures import EXHIBITS
from repro.machine import registry
from repro.workloads.registry import FROM_GB


def test_machine_names_mirror_the_machine_registry():
    assert MACHINE_NAMES == registry.names()


def test_config_names_mirror_the_config_enum():
    assert CONFIG_NAMES == tuple((c.name, c.value) for c in ConfigName)


def test_paper_trio_mirrors_the_config_enum():
    assert PAPER_TRIO == tuple(c.value for c in ConfigName.paper_trio())


def test_cli_exhibits_mirror_the_figure_registry():
    assert cli.EXHIBIT_IDS == tuple(EXHIBITS)


def test_cli_workloads_mirror_the_size_constructors():
    assert cli.SIZED_WORKLOADS == tuple(sorted(FROM_GB))
