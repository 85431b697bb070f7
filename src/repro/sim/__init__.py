"""Discrete-event simulation substrate: engine, context, links, stats, RNG."""

from repro.sim.context import SimContext, StatsSink
from repro.sim.engine import (
    DEFAULT_KERNEL,
    KERNELS,
    EventHandle,
    Process,
    Simulator,
    process_events_executed,
)
from repro.sim.link import DuplexLink, Link
from repro.sim.rng import make_rng, spawn
from repro.sim.stats import (
    LatencyRecorder,
    MctRecorder,
    Summary,
    ideal_mct_ns,
    throughput_mrps,
)

__all__ = [
    "DEFAULT_KERNEL",
    "DuplexLink",
    "EventHandle",
    "KERNELS",
    "LatencyRecorder",
    "Link",
    "MctRecorder",
    "Process",
    "SimContext",
    "Simulator",
    "StatsSink",
    "Summary",
    "ideal_mct_ns",
    "make_rng",
    "process_events_executed",
    "spawn",
    "throughput_mrps",
]
