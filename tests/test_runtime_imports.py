"""The served stack runs on numpy alone: importing the CLI, the shard
router and the capacity planner loads no scipy module (scipy is a
test-only oracle, listed in the ``test`` extra)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
import repro.cli, repro.serve.shard, repro.plan.planner
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_runtime_imports_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
        check=True,
    )
    assert json.loads(result.stdout) == []


def test_scipy_is_not_a_runtime_dependency():
    lines = (REPO_ROOT / "pyproject.toml").read_text().splitlines()
    dependencies = next(line for line in lines if line.startswith("dependencies"))
    test_extra = next(line for line in lines if line.startswith("test ="))
    assert "scipy" not in dependencies
    assert "scipy" in test_extra
