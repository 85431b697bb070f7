"""Exception hierarchy for the EDM reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Raised when the discrete-event engine is used incorrectly."""


class SchedulerError(ReproError):
    """Raised by the in-network scheduler on invalid state transitions."""


class PhyError(ReproError):
    """Raised by the PHY layer (block model, encoder, preemption mux)."""


class MacError(ReproError):
    """Raised by the Ethernet MAC layer (framing, CRC)."""


class HostError(ReproError):
    """Raised by the host network stack (NIC model)."""


class MemoryError_(ReproError):
    """Raised by the DRAM / memory-controller substrate.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`.
    """


class FabricError(ReproError):
    """Raised by fabric-level simulation models (EDM and baselines)."""


class WorkloadError(ReproError):
    """Raised by workload and trace generators on invalid parameters."""


class ConfigError(ReproError):
    """Raised when an experiment or component is misconfigured."""


class ScenarioError(ReproError):
    """Raised by the scenario engine on invalid specs or fault schedules."""


class ExecutionError(ReproError):
    """Raised by the execution layer on unrecoverable failures.

    Covers a worker process that died under ``--jobs`` (the message
    names the experiment) and checkpoint journals that do not match the
    grid being resumed.
    """
