"""Crash-safe file writes: temp sibling, fsync, atomic rename.

Artifacts and bench baselines are the repo's long-lived outputs; an
OOM-kill or ctrl-C midway through ``json.dump`` used to leave a
truncated file at the final path, silently poisoning later comparisons.
Every artifact write now goes through :func:`atomic_write_json`: the
payload is serialized fully in memory first (serialization errors never
touch disk), written to a ``<path>.tmp`` sibling, fsync'd, and moved
into place with ``os.replace`` — readers see either the old file or the
complete new one, never a prefix.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Optional


def fsync_directory(path: str) -> None:
    """Best-effort fsync of the directory holding ``path`` (POSIX only)."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path`` via a fsync'd temp sibling + rename."""
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_path, path)
    fsync_directory(path)
    return path


def atomic_write_json(
    path: str,
    payload: Any,
    *,
    indent: int = 2,
    sort_keys: bool = False,
    default: Optional[Callable[[Any], Any]] = None,
) -> str:
    """Serialize ``payload`` and atomically write it to ``path``.

    The file always ends with a newline, matching the repo's historical
    artifact format byte-for-byte.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys, default=default)
    return atomic_write_text(path, text + "\n")
