"""The docs lint (`tools/check_docs.py`) as part of the tier-1 suite.

`make docs-check` runs the script directly; this wrapper makes the same
checks fail `pytest tests/` so documentation drift is caught even when
tests are invoked without the Makefile.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "tools" / "check_docs.py"


def load_check_docs():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import check_docs
    finally:
        sys.path.pop(0)
    return check_docs


class TestDocsCheck:
    def test_script_passes(self):
        result = subprocess.run(
            [sys.executable, str(SCRIPT)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr
        assert "docs-check: OK" in result.stdout

    def test_detects_broken_link(self, tmp_path):
        check_docs = load_check_docs()
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "see [missing](docs/NOPE.md) and [ok](docs/OK.md)\n"
        )
        (tmp_path / "docs" / "OK.md").write_text("fine\n")
        errors = check_docs.check_links(tmp_path)
        assert len(errors) == 1
        assert "NOPE.md" in errors[0]

    def test_skips_external_links_and_anchors(self):
        check_docs = load_check_docs()
        text = (
            "[a](https://example.com) [b](mailto:x@y.z) "
            "[c](#local-anchor) [d](MODEL.md#section-2)"
        )
        assert check_docs.iter_relative_links(text) == ["MODEL.md"]

    def test_cli_flags_include_observability(self):
        check_docs = load_check_docs()
        flags = check_docs.cli_flags()
        assert {"--trace-out", "--metrics-out", "--check", "--cache-dir"} <= flags
        assert "--help" not in flags

    def test_detects_undocumented_flag(self, tmp_path):
        check_docs = load_check_docs()
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text("only mentions --check\n")
        errors = check_docs.check_flags(tmp_path)
        assert any("--trace-out" in error for error in errors)

    def test_detects_stale_flag(self, tmp_path):
        check_docs = load_check_docs()
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "run with --check, `numactl --membind=1` and --no-such-flag\n"
        )
        (tmp_path / "docs" / "A.md").write_text("a | --- | table --\n")
        errors = check_docs.check_stale_flags(tmp_path)
        assert errors == ["README.md: documents unknown flag --no-such-flag"]
