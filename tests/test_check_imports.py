"""The import lint (`tools/check_imports.py`) as part of the tier-1
suite: the tree is clean, and a planted unused import or a planted
``src/`` import of ``tests`` is caught."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "tools" / "check_imports.py"


def load_check_imports():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import check_imports
    finally:
        sys.path.pop(0)
    return check_imports


def _plant(tmp_path: Path, relative: str, source: str) -> Path:
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


class TestCheckImports:
    def test_script_passes_on_the_tree(self):
        result = subprocess.run(
            [sys.executable, str(SCRIPT)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr
        assert "check-imports: OK" in result.stdout

    def test_detects_planted_unused_import(self, tmp_path):
        check_imports = load_check_imports()
        _plant(
            tmp_path,
            "src/pkg/mod.py",
            "import os\nimport json\nfrom pathlib import Path, PurePath\n\n"
            "print(json.dumps(str(Path('.'))))\n",
        )
        errors = check_imports.check(tmp_path)
        assert errors == [
            "src/pkg/mod.py:1: 'os' imported but unused",
            "src/pkg/mod.py:3: 'PurePath' imported but unused",
        ]

    def test_detects_unused_import_inside_a_function(self, tmp_path):
        check_imports = load_check_imports()
        _plant(tmp_path, "tests/test_x.py", "def f():\n    import re\n    return 1\n")
        assert check_imports.check(tmp_path) == [
            "tests/test_x.py:2: 're' imported but unused"
        ]

    def test_string_annotations_count_as_use(self, tmp_path):
        check_imports = load_check_imports()
        path = _plant(
            tmp_path,
            "src/pkg/typed.py",
            "from __future__ import annotations\n"
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from decimal import Decimal\n"
            "    from fractions import Fraction\n"
            "def f(x: 'Decimal | None') -> \"list[Fraction]\":\n"
            "    return []\n",
        )
        assert check_imports.unused_imports(path) == []

    def test_all_reexports_count_as_use(self, tmp_path):
        check_imports = load_check_imports()
        path = _plant(
            tmp_path,
            "src/pkg/__init__.py",
            "from os import sep, pathsep\n__all__ = ['sep']\n",
        )
        assert check_imports.unused_imports(path) == [("pathsep", 1)]

    def test_init_without_all_reexports_everything(self, tmp_path):
        check_imports = load_check_imports()
        path = _plant(tmp_path, "src/pkg/__init__.py", "from os import sep\n")
        assert check_imports.unused_imports(path) == []

    def test_detects_src_importing_tests(self, tmp_path):
        check_imports = load_check_imports()
        _plant(
            tmp_path,
            "src/pkg/bench.py",
            "from tests.oracles.eventsim import MemoryEventSimulator\n"
            "import tests.oracles.mesh\n"
            "def f():\n"
            "    import tests\n"
            "    return MemoryEventSimulator, tests\n",
        )
        # Neither a look-alike module nor a relative import is ``tests``,
        # and tests may import each other.
        _plant(
            tmp_path,
            "src/pkg/mod.py",
            "import testsuite\nfrom . import tests\nprint(testsuite, tests)\n",
        )
        _plant(
            tmp_path,
            "tests/test_y.py",
            "from tests.oracles.mesh import f\nprint(f)\n",
        )
        assert check_imports.check(tmp_path) == [
            "src/pkg/bench.py:1: imports 'tests.oracles.eventsim' from tests/",
            "src/pkg/bench.py:2: imports 'tests.oracles.mesh' from tests/",
            "src/pkg/bench.py:4: imports 'tests' from tests/",
        ]
