"""The live-run topology surface: the host links faults can reach.

Every fabric wires one switch (§3: EDM's scheduler lives in a single
switch's PHY at rack scale).  A :class:`SubstrateTopology` is the handle
a fabric passes to its ``topology_hook`` after wiring and before the
event loop starts: the run's context and the host access links keyed by
node id.  Fault schedules clamp node ids against ``num_hosts``
(docs/TOPOLOGY.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.sim.link import Link


@dataclass
class SubstrateTopology:
    """One run's wired substrate, passed to ``topology_hook``.

    * ``ctx`` — a SimContext scheduling on the run's clock (fabrics may
      hand a private lane/stats sink here; fault *events* schedule on
      each link's own lane via ``link.sim`` regardless).
    * ``uplinks`` / ``downlinks`` — host access links by node id
      (host→switch and switch→host respectively).
    * ``num_hosts`` — the cluster size, derived from ``uplinks``.
    """

    ctx: object
    uplinks: Dict[int, Link] = field(default_factory=dict)
    downlinks: Dict[int, Link] = field(default_factory=dict)

    @property
    def num_hosts(self) -> int:
        return len(self.uplinks)

    @property
    def sim(self):
        return self.ctx.sim


__all__ = ["SubstrateTopology"]
