"""The served stack's import graph.

* It runs on numpy alone: importing the CLI, the shard router and the
  capacity planner loads no scipy module (scipy is a test-only oracle,
  listed in the ``test`` extra).
* The shard router runs without the model: neither ``import
  repro.serve.shard`` nor the router process of ``repro serve
  --replicas 2`` loads numpy or any model package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


#: What the router process must not load: numpy and the model packages.
MODEL_PACKAGES = (
    "numpy", "repro.engine", "repro.core", "repro.machine", "repro.workloads"
)

#: Boots ``repro serve --replicas 2 --prewarm`` in this process; once it
#: listens, records the loaded modules and interrupts it.
ROUTER_PROBE = """
import json, os, signal, sys, threading, time
from repro.cli import main

tables, port_file, out = sys.argv[1:]

def record():
    while not os.path.exists(port_file):
        time.sleep(0.02)
    with open(out, "w") as handle:
        json.dump(sorted(sys.modules), handle)
    os.kill(os.getpid(), signal.SIGINT)

threading.Thread(target=record, daemon=True).start()
sys.exit(main([
    "--table-cache", tables, "serve", "--replicas", "2", "--prewarm",
    "--port", "0", "--port-file", port_file,
]))
"""


def _model_modules(modules: list[str]) -> list[str]:
    return [
        m
        for m in modules
        if any(m == p or m.startswith(p + ".") for p in MODEL_PACKAGES)
    ]


def _run(code: str, *args: str, timeout: float = 30.0) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        check=True,
        timeout=timeout,
    )
    return result.stdout


def test_importing_the_shard_router_loads_no_model():
    modules = json.loads(
        _run("import json, sys, repro.serve.shard; print(json.dumps(list(sys.modules)))")
    )
    assert "repro.serve.shard" in modules
    assert _model_modules(modules) == []


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_router_process_loads_no_model(tmp_path):
    out = tmp_path / "modules.json"
    _run(
        ROUTER_PROBE,
        str(tmp_path / "tables"),
        str(tmp_path / "address"),
        str(out),
        timeout=180.0,
    )
    modules = json.loads(out.read_text())
    assert "repro.serve.shard" in modules
    assert _model_modules(modules) == []
