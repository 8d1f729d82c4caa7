"""Crash-safe file replacement.

Every file the system rewrites whole — the agent archive, saved
knowledge bases, span dumps, hub datasets and adapters — goes through
:func:`write_text_atomic`, so a process killed mid-write leaves the
previous file behind instead of a truncated one the next boot cannot
parse.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import tempfile
from typing import Union


def write_text_atomic(path: Union[str, pathlib.Path], text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8): readers see the old file
    or the new one, never a prefix.

    The text goes to a temporary file in the same directory (so the
    rename stays on one filesystem), is flushed and fsynced, then
    ``os.replace``-d over ``path``. If anything raises first, the
    temporary file is removed and ``path`` is untouched.
    """
    target = pathlib.Path(path)
    fd, temp = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise
