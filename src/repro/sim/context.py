"""Shared simulation context: one clock, one RNG, one set of stats sinks.

Every fabric model used to spin up a bare :class:`~repro.sim.engine.Simulator`
and thread its own RNG and ad-hoc counters through closures.  A
:class:`SimContext` bundles the three concerns one simulated cluster
shares — the event clock, the seeded random stream, and the statistics
sinks — so hosts, switches, and links built for the same run observe the
same time base and report into the same place::

    ctx = SimContext.create(seed=3)
    switch = EdmSwitch(ctx, scheduler_config)      # Process accepts a context
    ctx.stats.incr("frames_forwarded")
    ctx.sim.run()

``Process`` subclasses accept either a raw ``Simulator`` (old call sites
and unit tests) or a ``SimContext``; fabric models create one context per
``run()`` via :meth:`~repro.fabrics.base.Fabric.new_context`.

:meth:`SimContext.lane` derives a sibling context whose ``sim`` is a
:class:`~repro.sim.engine.LaneView`: same clock, same queue, same RNG and
stats sinks, but a private sequence-number stream ``(lane << LANE_SHIFT) |
n``.  Components built on lane contexts produce event keys that do not
depend on the global interleaving of scheduling calls, which keeps the
golden fixtures and fault-event keys stable (see docs/DETERMINISM.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.sim.engine import LaneView, Simulator
from repro.sim.rng import SeedLike, make_rng


@dataclass
class StatsSink:
    """Named counters and sample series accumulated during one run."""

    counters: Dict[str, float] = field(default_factory=dict)
    series: Dict[str, List[float]] = field(default_factory=dict)

    def incr(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        self.series.setdefault(name, []).append(value)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot: counters plus per-series count/mean."""
        out: Dict[str, object] = dict(self.counters)
        for name, values in self.series.items():
            if values:
                out[f"{name}_count"] = len(values)
                out[f"{name}_mean"] = float(np.mean(values))
        return out


class SimContext:
    """The clock + RNG + stats bundle one simulated cluster shares."""

    __slots__ = ("sim", "rng", "stats")

    def __init__(
        self,
        sim: Simulator,
        rng: Optional[np.random.Generator] = None,
        stats: Optional[StatsSink] = None,
    ) -> None:
        self.sim = sim
        self.rng = rng if rng is not None else make_rng(None)
        self.stats = stats if stats is not None else StatsSink()

    @classmethod
    def create(cls, seed: SeedLike = 0) -> "SimContext":
        """Build a fresh context with its own simulator and seeded RNG."""
        return cls(sim=Simulator(), rng=make_rng(seed))

    def lane(self, lane: int) -> "SimContext":
        """A sibling context scheduling through a private seq lane.

        Shares this context's clock, queue, RNG, and stats sinks; only the
        sequence-number stream differs.  Calling ``lane()`` on an already
        lane-scoped context derives the new lane from the same root
        simulator (lanes do not nest).
        """
        inner = self.sim
        root = inner.root if isinstance(inner, LaneView) else inner
        return SimContext(sim=root.lane(lane), rng=self.rng, stats=self.stats)

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def events_processed(self) -> int:
        return self.sim.events_processed
