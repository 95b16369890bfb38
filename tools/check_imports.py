#!/usr/bin/env python3
"""Import lint (`make docs-check`): dead imports and the src/tests boundary.

Reports every name a module imports but never uses, scanning ``src/``,
``tests/``, ``tools/``, ``benchmarks/`` and ``examples/`` with the
standard-library :mod:`ast` only.  A name counts as used when it is
read anywhere in the module, appears inside a string annotation
(``"SweepExecutor | None"``), or is listed in the module's ``__all__``.
An ``__init__.py`` without ``__all__`` re-exports everything it
imports, so it is not scanned; ``from __future__`` imports and an
``import x as x`` re-export are never reported.

It also reports every import of ``tests`` or a module under it from
``src/``: test oracles live in ``tests/``, and the library must run
without them.

Exit status 0 when clean, 1 with one ``path:line: ...`` line per
problem otherwise.  Run directly (``python tools/check_imports.py``) or
via ``tests/test_check_imports.py``, which puts it in the tier-1 suite.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "tools", "benchmarks", "examples")


def _imported(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) for every import in the module, at any depth."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname == alias.name:
                    continue  # explicit re-export
                name = alias.asname or alias.name.split(".", 1)[0]
                bound.append((name, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                bound.append((alias.asname or alias.name, node.lineno))
    return bound


def _annotation_names(annotation: ast.expr | None) -> set[str]:
    """Names read by an annotation, including those inside strings."""
    names: set[str] = set()
    if annotation is None:
        return names
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                continue
            names |= _annotation_names(inner)
    return names


def _exported(tree: ast.Module) -> set[str] | None:
    """The string entries of a module-level ``__all__`` list or tuple
    (``None`` when the module defines none)."""
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            if isinstance(value, (ast.List, ast.Tuple)):
                return {
                    e.value
                    for e in value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                }
    return None


def _used(tree: ast.Module) -> set[str]:
    used = set(_exported(tree) or ())
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return used


def unused_imports(path: Path) -> list[tuple[str, int]]:
    """(name, line) for every import in ``path`` that is never used."""
    tree = ast.parse(path.read_text(), filename=str(path))
    if path.name == "__init__.py" and _exported(tree) is None:
        return []
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


def imports_of_tests(path: Path) -> list[tuple[str, int]]:
    """(module, line) for every import of ``tests`` or a module under it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        for module in modules:
            if module.split(".", 1)[0] == "tests":
                found.append((module, node.lineno))
    return found


def python_files(repo_root: Path = REPO_ROOT) -> list[Path]:
    files: list[Path] = []
    for directory in SCANNED:
        files.extend(sorted((repo_root / directory).rglob("*.py")))
    return files


def check(repo_root: Path = REPO_ROOT) -> list[str]:
    """Every dead import under the scanned directories, then every
    ``src/`` import of ``tests``, as error strings."""
    errors = [
        f"{path.relative_to(repo_root)}:{line}: {name!r} imported but unused"
        for path in python_files(repo_root)
        for name, line in unused_imports(path)
    ]
    errors += [
        f"{path.relative_to(repo_root)}:{line}: imports {module!r} from tests/"
        for path in sorted((repo_root / "src").rglob("*.py"))
        for module, line in imports_of_tests(path)
    ]
    return errors


def main() -> int:
    errors = check()
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"check-imports: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print(f"check-imports: OK ({len(python_files())} modules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
