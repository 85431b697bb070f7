"""Crash-safe execution layer: checkpoints and atomic writes.

This package makes the *execution harness* — not the modeled network —
survive an interrupted sweep (contract: docs/RESILIENCE.md):

* :mod:`repro.execution.checkpoint` — a crash-safe JSON-lines journal of
  completed cells, powering ``repro run <exp> --resume <path>``.
* :mod:`repro.execution.atomic` — temp-sibling + fsync + ``os.replace``
  writes for artifacts and bench baselines (no truncated JSON, ever).

The ``--jobs`` fan-out itself is a stdlib process pool in
:class:`~repro.experiments.runner.Runner`.  A resumed cell replays the
result of the same pure function on the same seed, so a resumed run's
reduced artifact equals an uninterrupted run's.
"""

from repro.execution.atomic import atomic_write_json, atomic_write_text
from repro.execution.checkpoint import (
    CHECKPOINT_SUFFIX,
    CheckpointWriter,
    grid_fingerprint,
    load_checkpoint,
    new_checkpoint_path,
)

__all__ = [
    "CHECKPOINT_SUFFIX",
    "CheckpointWriter",
    "atomic_write_json",
    "atomic_write_text",
    "grid_fingerprint",
    "load_checkpoint",
    "new_checkpoint_path",
]
