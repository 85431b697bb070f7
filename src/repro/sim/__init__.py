"""Discrete-event simulation substrate: engine, context, links, RNG."""

from repro.sim.context import SimContext, StatsSink
from repro.sim.engine import (
    DelayLine,
    Process,
    Simulator,
    process_events_executed,
)
from repro.sim.link import Link
from repro.sim.rng import make_rng

__all__ = [
    "DelayLine",
    "Link",
    "Process",
    "SimContext",
    "Simulator",
    "StatsSink",
    "make_rng",
    "process_events_executed",
]
