#!/usr/bin/env python3
"""Documentation lint (`make docs-check`).

Three checks, all cheap and dependency-free:

1. **Relative links resolve** — every relative Markdown link target in
   README.md and docs/*.md must exist on disk (external http(s)/mailto
   links are skipped, anchors are stripped).
2. **CLI flags are documented** — every ``--flag`` exposed by
   ``repro.cli`` (top-level and subcommand parsers alike) must be
   mentioned somewhere in README.md or docs/*.md, so the CLI surface
   cannot drift ahead of the documentation.
3. **Documented flags exist** — every ``--flag`` written in README.md
   or docs/*.md must be defined by some ``repro`` parser, except the
   few foreign tools' flags in :data:`FOREIGN_FLAGS`, so the docs
   cannot keep describing a flag the CLI has dropped.

Exit status 0 when clean, 1 with a per-problem report otherwise.  Run
directly (``python tools/check_docs.py``) or via the pytest wrapper
(``tests/test_docs_check.py``), which puts it in the tier-1 suite.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Inline Markdown links/images: [text](target) / ![alt](target).
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")
# A ``--flag`` token that is not part of a longer word or dash run.
_FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
#: Flags of other tools that the docs quote: pytest-benchmark's and
#: numactl's.
FOREIGN_FLAGS = frozenset(
    {"--benchmark-only", "--hardware", "--membind", "--preferred", "--interleave"}
)


def doc_files(repo_root: Path = REPO_ROOT) -> list[Path]:
    """The documentation corpus: README plus everything under docs/."""
    return [repo_root / "README.md", *sorted((repo_root / "docs").glob("*.md"))]


def iter_relative_links(text: str) -> list[str]:
    """Relative link targets in ``text`` (anchors stripped, extern skipped)."""
    targets = []
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL_PREFIXES) or target.startswith("#"):
            continue
        targets.append(target.split("#", 1)[0])
    return targets


def check_links(repo_root: Path = REPO_ROOT) -> list[str]:
    """Relative link targets that do not exist, as error strings."""
    errors = []
    for doc in doc_files(repo_root):
        for target in iter_relative_links(doc.read_text()):
            resolved = (doc.parent / target).resolve()
            if not resolved.exists():
                errors.append(
                    f"{doc.relative_to(repo_root)}: broken link -> {target}"
                )
    return errors


def cli_flags() -> set[str]:
    """Every ``--flag`` of the CLI, including subcommand parsers."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.cli import _build_parser
    finally:
        sys.path.pop(0)

    flags: set[str] = set()

    def walk(parser: argparse.ArgumentParser) -> None:
        for action in parser._actions:
            flags.update(
                s for s in action.option_strings if s.startswith("--")
            )
            if isinstance(action, argparse._SubParsersAction):
                for subparser in action.choices.values():
                    walk(subparser)

    walk(_build_parser())
    flags.discard("--help")
    return flags


def check_flags(repo_root: Path = REPO_ROOT) -> list[str]:
    """CLI flags not mentioned anywhere in the docs corpus."""
    corpus = "\n".join(doc.read_text() for doc in doc_files(repo_root))
    return [
        f"CLI flag not documented in README.md or docs/: {flag}"
        for flag in sorted(cli_flags())
        if flag not in corpus
    ]


def check_stale_flags(repo_root: Path = REPO_ROOT) -> list[str]:
    """Flags the docs mention that no ``repro`` parser defines."""
    known = cli_flags() | FOREIGN_FLAGS
    errors = []
    for doc in doc_files(repo_root):
        for flag in sorted(set(_FLAG_RE.findall(doc.read_text())) - known):
            errors.append(
                f"{doc.relative_to(repo_root)}: documents unknown flag {flag}"
            )
    return errors


def main() -> int:
    errors = check_links() + check_flags() + check_stale_flags()
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"docs-check: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    docs = len(doc_files())
    flags = len(cli_flags())
    print(f"docs-check: OK ({docs} documents, {flags} CLI flags covered)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
