"""Fault-tolerant execution layer: supervision, checkpoints, chaos.

This package makes the *execution harness* — not the modeled network —
survive real-world faults, so long sweeps degrade instead of dying
(contract: docs/RESILIENCE.md):

* :mod:`repro.execution.supervisor` — per-cell timeouts, worker-death
  detection, and deterministic retry/backoff under the experiment
  runner's ``--jobs`` fan-out.
* :mod:`repro.execution.checkpoint` — a crash-safe JSON-lines journal of
  completed cells, powering ``repro run <exp> --resume <path>``.
* :mod:`repro.execution.atomic` — temp-sibling + fsync + ``os.replace``
  writes for artifacts and bench baselines (no truncated JSON, ever).
* :mod:`repro.execution.chaos` — the ``REPRO_CHAOS`` fault injector used
  by tests and CI to *assert* recovery behaviour.

Faults here change wall-clock behaviour only: a retried cell re-runs the
same pure function on the same seed, so a degraded run's reduced
artifact equals a fault-free run's.
"""

from repro.execution.atomic import atomic_write_json, atomic_write_text
from repro.execution.chaos import (
    CHAOS_ENV,
    ChaosFault,
    active_faults,
    parse_chaos,
    reset_chaos_state,
)
from repro.execution.checkpoint import (
    CHECKPOINT_SUFFIX,
    CheckpointWriter,
    grid_fingerprint,
    load_checkpoint,
    new_checkpoint_path,
)
from repro.execution.supervisor import SupervisionPolicy, supervised_map

__all__ = [
    "CHAOS_ENV",
    "CHECKPOINT_SUFFIX",
    "ChaosFault",
    "CheckpointWriter",
    "SupervisionPolicy",
    "active_faults",
    "atomic_write_json",
    "atomic_write_text",
    "grid_fingerprint",
    "load_checkpoint",
    "new_checkpoint_path",
    "parse_chaos",
    "reset_chaos_state",
    "supervised_map",
]
