"""Atomic file replacement for caches shared by threads and processes."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def replace_text(path: str | os.PathLike[str], text: str) -> None:
    """Atomically set ``path``'s contents to ``text``.

    The text goes to a temporary file that is unique to this call, in
    the target's directory (so the final rename never crosses a file
    system), and is then renamed over ``path``.  Concurrent writers —
    threads of one process or separate processes — each rename a
    complete file of their own; readers see an old or a new file, never
    a partial one.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f"{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
