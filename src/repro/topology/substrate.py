"""The live-run topology surface: what faults can reach.

A :class:`SubstrateTopology` is the handle a fabric passes to its
``topology_hook`` after wiring and before the event loop starts.  It is
the *generalized* form of the single-switch surface PR 3 introduced in
``repro.fabrics.queueing`` (which re-exports this class for backward
compatibility): host access links keyed by node id, every switch keyed
by tier, and — new with multi-tier topologies — the core trunk links
keyed ``(leaf, spine)`` so a :class:`~repro.scenarios.faults.FaultInjector`
can target any tier.  Fault schedules clamp node ids and core indices
against ``num_hosts`` and ``core_keys`` (docs/TOPOLOGY.md §faults).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Tuple

from repro.sim.link import Link
from repro.topology.spec import SINGLE, TopologySpec


@dataclass
class SubstrateTopology:
    """One run's wired substrate, passed to ``topology_hook``.

    * ``ctx`` — a SimContext scheduling on the run's clock (fabrics may
      hand a private lane/stats sink here; fault *events* schedule on
      each link's own lane via ``link.sim`` regardless).
    * ``spec`` — the :class:`~repro.topology.spec.TopologySpec` shape.
    * ``uplinks`` / ``downlinks`` — host access links by node id
      (host→first-switch and last-switch→host respectively).
    * ``switches`` — live switch objects keyed by tier tuple, e.g.
      ``("switch",)``, ``("leaf", 2)``, ``("spine", 0)``.
    * ``core_links`` — trunk links keyed ``(leaf, spine)``, each tuple
      ordered (leaf→spine, spine→leaf).
    * ``num_hosts`` / ``core_keys`` — the cluster shape, derived from the
      link dicts.
    """

    ctx: object
    spec: TopologySpec = SINGLE
    uplinks: Dict[int, Link] = field(default_factory=dict)
    downlinks: Dict[int, Link] = field(default_factory=dict)
    switches: Dict[Hashable, object] = field(default_factory=dict)
    core_links: Dict[Tuple[int, int], Tuple[Link, ...]] = field(
        default_factory=dict
    )

    @property
    def num_hosts(self) -> int:
        return len(self.uplinks)

    @property
    def core_keys(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(self.core_links))

    @property
    def sim(self):
        return self.ctx.sim


__all__ = ["SubstrateTopology"]
