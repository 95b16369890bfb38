"""Lazy package exports (PEP 562).

A package whose ``__init__`` re-exports names from its submodules pays
for every submodule's imports the moment anything under it is imported.
:func:`lazy_exports` instead resolves each public name on first access,
so a process imports only the modules it actually uses — the shard
router, for one, never loads the model.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Iterable, Mapping
from typing import Any


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``.

    ``exports`` maps each submodule (relative to ``package``) to the
    public names it defines; a name equal to its submodule's is that
    submodule.  A resolved name is cached in the package namespace, so
    only the first access goes through ``__getattr__``.
    """
    namespace = sys.modules[package].__dict__
    owners = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        imported = importlib.import_module(f"{package}.{module}")
        value = imported if module == name else getattr(imported, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owners))

    return __getattr__, __dir__, list(owners)
