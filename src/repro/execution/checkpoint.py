"""Crash-safe checkpoint journal for experiment grids: append, fsync, resume.

Long sweeps used to be all-or-nothing: a crash at cell 199 of 200 threw
away every completed cell.  The runner now streams each completed cell
to a JSON-lines journal (``results/<experiment>/<stamp>.ckpt.jsonl``)
as it finishes; ``repro run <exp> --resume <path>`` replays the journal
and re-executes only the remainder.

Journal format — one JSON object per line:

* line 1, the header: ``{"schema": 1, "kind": "checkpoint",
  "experiment": ..., "grid": <fingerprint>, "cells": N}``.  The
  fingerprint hashes the full cell list (every parameter, in grid
  order), so a journal can never be resumed against a different grid —
  changed ``--nodes``, a new seed, or a reordered catalog all refuse
  loudly instead of splicing stale results.
* one ``{"index": i, "key": ..., "result": ..., "perf": {...}}`` line
  per completed cell, in completion order (``index`` keys grid order).

Crash-safety contract: every line is appended with a single ``write``
followed by ``flush`` + ``fsync``, so after a crash the journal is a
valid prefix plus at most one truncated final line, which the loader
skips.  Results round-trip through JSON, so resumed values live in JSON
space (tuples come back as lists); every registered reducer consumes
JSON-shaped results already, and the artifact itself is JSON, which is
what makes a resumed artifact byte-identical to a clean run's.
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.errors import ExecutionError

CHECKPOINT_SCHEMA_VERSION = 1

#: Artifact-sibling suffix for checkpoint journals.
CHECKPOINT_SUFFIX = ".ckpt.jsonl"


def grid_fingerprint(experiment: str, cells: Sequence[Any]) -> str:
    """Stable hash of the complete grid (experiment + every cell param)."""
    blob = json.dumps(
        {"experiment": experiment, "cells": [cell.to_dict() for cell in cells]},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def new_checkpoint_path(out_dir: str, experiment: str) -> str:
    """A fresh ``<out_dir>/<experiment>/<stamp>.ckpt.jsonl`` path.

    Nothing is created: the journal and its directory appear with the
    first completed cell (:class:`CheckpointWriter`).
    """
    directory = os.path.join(out_dir, experiment)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    path = os.path.join(directory, f"{stamp}{CHECKPOINT_SUFFIX}")
    suffix = 1
    while os.path.exists(path):
        path = os.path.join(directory, f"{stamp}-{suffix}{CHECKPOINT_SUFFIX}")
        suffix += 1
    return path


class CheckpointWriter:
    """Appends completed cells to a journal with per-line fsync.

    Opening an existing journal (the ``--resume`` continue-in-place
    path) validates its header against the current grid and appends.
    A fresh journal, and its directory, is created with its header just
    before the first record, so a run that fails before any cell
    completes leaves nothing on disk.
    """

    def __init__(
        self,
        path: str,
        experiment: str,
        cells: Sequence[Any],
        *,
        default: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        self.path = path
        self._default = default
        self._fh: Optional[Any] = None
        self._header: Optional[Dict[str, Any]] = None
        fingerprint = grid_fingerprint(experiment, cells)
        if os.path.exists(path) and os.path.getsize(path) > 0:
            header = _read_header(path)
            _check_header(header, path, experiment, fingerprint)
            # A crash mid-append leaves a torn final line with no newline;
            # drop it before appending, or the next record would be glued
            # onto it and corrupt the journal.
            _truncate_torn_tail(path)
        else:
            self._header = {
                "schema": CHECKPOINT_SCHEMA_VERSION,
                "kind": "checkpoint",
                "experiment": experiment,
                "grid": fingerprint,
                "cells": len(cells),
            }

    def _append(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, default=self._default)
        # One write + fsync per record: after a crash the journal is a
        # valid prefix plus at most one partial trailing line.
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record(
        self, index: int, cell: Any, result: Any, perf: Dict[str, Any]
    ) -> None:
        if self._fh is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
            if self._header is not None:
                self._append(self._header)
        self._append(
            {"index": index, "key": cell.key, "result": result, "perf": perf}
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _truncate_torn_tail(path: str) -> None:
    """Cut a partial (newline-less) final line left by a mid-append crash."""
    with open(path, "rb+") as fh:
        data = fh.read()
        if data.endswith(b"\n"):
            return
        fh.truncate(data.rfind(b"\n") + 1)
        fh.flush()
        os.fsync(fh.fileno())


def _read_header(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise ExecutionError(
            f"checkpoint {path} has an unreadable header line: {exc}"
        ) from None
    if not isinstance(header, dict) or header.get("kind") != "checkpoint":
        raise ExecutionError(f"{path} is not a checkpoint journal")
    return header


def _check_header(
    header: Dict[str, Any], path: str, experiment: str, fingerprint: str
) -> None:
    if header.get("schema") != CHECKPOINT_SCHEMA_VERSION:
        raise ExecutionError(
            f"checkpoint {path} has schema {header.get('schema')!r}; "
            f"this build reads schema {CHECKPOINT_SCHEMA_VERSION}"
        )
    if header.get("experiment") != experiment:
        raise ExecutionError(
            f"checkpoint {path} belongs to experiment "
            f"{header.get('experiment')!r}, not {experiment!r}"
        )
    if header.get("grid") != fingerprint:
        raise ExecutionError(
            f"checkpoint {path} was written for a different grid "
            f"(fingerprint {header.get('grid')} != {fingerprint}); "
            f"rerun with the original parameters or start a fresh run"
        )


def load_checkpoint(
    path: str, experiment: str, cells: Sequence[Any]
) -> Dict[int, Tuple[Any, Dict[str, Any]]]:
    """Completed cells from a journal: ``{index: (result, perf)}``.

    Validates the header against the current grid (see
    :func:`grid_fingerprint`) and every record's cell key against the
    cell at its index.  A truncated *final* line — the signature of a
    crash mid-append — is skipped; a corrupt line anywhere else is an
    error, because it means the journal was edited or the filesystem
    lied about an fsync'd write.
    """
    fingerprint = grid_fingerprint(experiment, cells)
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines:
        raise ExecutionError(f"checkpoint {path} is empty")
    header = _read_header(path)
    _check_header(header, path, experiment, fingerprint)
    done: Dict[int, Tuple[Any, Dict[str, Any]]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):
                break  # crash mid-append: a partial trailing line is expected
            raise ExecutionError(
                f"checkpoint {path} line {lineno} is corrupt (not trailing, "
                f"so this is not crash truncation)"
            ) from None
        index = record.get("index")
        if not isinstance(index, int) or not 0 <= index < len(cells):
            raise ExecutionError(
                f"checkpoint {path} line {lineno}: cell index {index!r} "
                f"outside the {len(cells)}-cell grid"
            )
        if record.get("key") != cells[index].key:
            raise ExecutionError(
                f"checkpoint {path} line {lineno}: cell key "
                f"{record.get('key')!r} does not match grid cell "
                f"{cells[index].key!r}"
            )
        perf = dict(record.get("perf") or {})
        perf["resumed"] = True
        done[index] = (record.get("result"), perf)
    return done
