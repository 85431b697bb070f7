"""Fault injection: schedule a :class:`FaultSpec` list into a live run.

The injector attaches through a fabric's ``topology_hook`` (see
:class:`repro.topology.SubstrateTopology`): it receives the run's host
links after wiring and schedules every fault through the
event kernel's ``post_at``, so faults replay deterministically in the
same total event order as the workload itself.  Link faults schedule
*one event per affected link, on that link's own simulator handle* — the
lane of the component transmitting on it — so a fault event's
``(time, priority, seq)`` key depends only on that link's lane, not on
how many other events the cluster scheduled first.

Fault mechanics:

* ``link_down`` — :meth:`Link.block_until` on the affected nodes' uplink
  and downlink: nothing transmits inside the window, queued traffic
  drains afterwards (the lossless-outage model).
* ``degraded_bw`` — :meth:`Link.set_rate_factor` at window start, restore
  to 1.0 at window end.
* ``failover`` — the §3.3 design via :mod:`repro.switchfab.failover`:
  every switch-egress delivery is mirrored (:class:`MirroredSender`) onto
  the primary path (immediate) and a backup path (``backup_extra_ns``
  later, the backup switch's extra hop); receivers deduplicate with
  :class:`DuplicateSuppressor`.  When the :class:`FailoverController`
  marks the primary dead, primary copies are lost on the floor and the
  backup copies — computed from the same mirrored demand stream — carry
  delivery onward with zero scheduler-state loss.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.scenarios.spec import FaultSpec
from repro.sim.link import Link
from repro.topology import SubstrateTopology
from repro.switchfab.failover import (
    DuplicateSuppressor,
    FailoverController,
    MirroredSender,
)


class FaultInjector:
    """Schedules a fault list into one run and records what fired.

    Build one per run, assign :meth:`install` as the fabric's
    ``topology_hook``, run the fabric, then read :attr:`log` /
    :meth:`summary` for what actually happened.
    """

    def __init__(self, faults: Tuple[FaultSpec, ...]) -> None:
        self.faults = tuple(faults)
        self.log: List[Dict[str, object]] = []
        self.controller: Optional[FailoverController] = None
        self._suppressors: List[DuplicateSuppressor] = []
        self._mirrors: List[MirroredSender] = []

    # ------------------------------------------------------------------ #

    def install(self, topo: SubstrateTopology) -> None:
        for fault in self.faults:
            if fault.kind == "link_down":
                self._install_link_down(topo, fault)
            elif fault.kind == "degraded_bw":
                self._install_degraded(topo, fault)
            else:
                self._install_failover(topo, fault)

    def _note(self, sim, kind: str, detail: str) -> None:
        self.log.append({"t_ns": sim.now, "fault": kind, "detail": detail})

    @staticmethod
    def _fault_links(
        topo: SubstrateTopology, fault: FaultSpec
    ) -> Tuple[List[int], List[Link]]:
        """The node ids a link-level fault strikes, and their links.

        Each node contributes its uplink, then its downlink.  Ids beyond
        the (possibly scaled-down) cluster clamp onto the surviving
        range, so a catalog scenario keeps a valid schedule at
        smoke-test scale.
        """
        if fault.nodes is None:
            nodes = sorted(topo.uplinks)
        else:
            nodes = sorted({n % topo.num_hosts for n in fault.nodes})
        links: List[Link] = []
        for node in nodes:
            links += (topo.uplinks[node], topo.downlinks[node])
        return nodes, links

    def _install_link_down(self, topo: SubstrateTopology, fault: FaultSpec) -> None:
        nodes, links = self._fault_links(topo, fault)
        # One event per link, scheduled on the link's own simulator
        # handle (its sequence lane), so each event's key is fixed by its
        # link alone.  The note/stat rides the first link's event only.
        for idx, link in enumerate(links):
            sim = link.sim

            def down(link=link, sim=sim, first=(idx == 0)) -> None:
                link.block_until(fault.until_ns)
                if first:
                    self._note(
                        sim, "link_down",
                        f"nodes={nodes} until={fault.until_ns:g}",
                    )
                    topo.ctx.stats.incr("fault_link_down")

            sim.post_at(fault.at_ns, down)

    def _install_degraded(self, topo: SubstrateTopology, fault: FaultSpec) -> None:
        nodes, links = self._fault_links(topo, fault)
        # Restore puts back the factor each link had when this window
        # opened (not a blanket 1.0), so windows that touch disjoint
        # state — or nest cleanly — cannot erase each other.  Overlapping
        # same-link windows are rejected at spec validation.
        prior: Dict[int, float] = {}

        for idx, link in enumerate(links):
            sim = link.sim

            def degrade(link=link, sim=sim, first=(idx == 0)) -> None:
                prior[id(link)] = link.rate_factor
                link.set_rate_factor(fault.factor)
                if first:
                    self._note(
                        sim, "degraded_bw",
                        f"nodes={nodes} factor={fault.factor:g} "
                        f"until={fault.until_ns:g}",
                    )
                    topo.ctx.stats.incr("fault_degraded_bw")

            def restore(link=link, sim=sim, first=(idx == 0)) -> None:
                link.set_rate_factor(prior.get(id(link), 1.0))
                if first:
                    self._note(sim, "degraded_bw_end", f"nodes={nodes}")

            sim.post_at(fault.at_ns, degrade)
            sim.post_at(fault.until_ns, restore)

    def _install_failover(self, topo: SubstrateTopology, fault: FaultSpec) -> None:
        sim = topo.sim
        stats = topo.ctx.stats
        if self.controller is None:
            self.controller = FailoverController()
        controller = self.controller
        uid_stream = itertools.count()

        for node, link in sorted(topo.downlinks.items()):
            inner = link.receiver
            if inner is None:  # port wired but never connected
                continue
            suppressor = DuplicateSuppressor(inner)
            self._suppressors.append(suppressor)

            def deliver_primary(tagged, suppressor=suppressor) -> None:
                uid, frame, primary_up = tagged
                if primary_up:
                    suppressor.receive(uid, frame)
                else:
                    stats.incr("frames_lost_on_dead_primary")

            def deliver_backup(tagged, suppressor=suppressor) -> None:
                uid, frame, primary_up = tagged
                # The backup switch saw the same mirrored demand stream, so
                # its copy arrives one backup-hop later.  If the primary
                # copy was dropped (primary dead), this is first-copy-wins
                # with no second copy ever coming — ``primary_up`` is the
                # state at mirror time, so a restore racing the backup hop
                # cannot confuse the suppressor's retirement accounting.
                def arrive() -> None:
                    if primary_up:
                        suppressor.receive(uid, frame)
                    else:
                        suppressor.receive_single(uid, frame)
                        stats.incr("frames_delivered_via_backup")

                sim.post(fault.backup_extra_ns, arrive)

            mirror = MirroredSender(primary=deliver_primary, backup=deliver_backup)
            self._mirrors.append(mirror)

            def mirrored_receive(frame, mirror=mirror) -> None:
                mirror.send(
                    (next(uid_stream), frame, controller.primary_alive)
                )

            link.connect(mirrored_receive)

        def fail() -> None:
            controller.fail_primary()
            self._note(sim, "failover", f"active={controller.active_path}")
            stats.incr("fault_failover")

        sim.post_at(fault.at_ns, fail)
        if fault.until_ns is not None:
            def restore() -> None:
                controller.restore_primary()
                self._note(sim, "failover_restore", "active=primary")

            sim.post_at(fault.until_ns, restore)

    # ------------------------------------------------------------------ #

    @property
    def in_flight(self) -> int:
        """Mirrored copies still awaiting their twin (0 = drained)."""
        return sum(s.in_flight for s in self._suppressors)

    def drained(self) -> bool:
        """True when every mirrored delivery has been resolved."""
        return self.in_flight == 0

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "faults_scheduled": len(self.faults),
            "faults_fired": len(self.log),
            "log": list(self.log),
        }
        if self.controller is not None:
            out["failovers"] = self.controller.failovers
            out["active_path"] = self.controller.active_path
            out["mirrored_frames"] = sum(m.sent for m in self._mirrors)
            out["suppressed_duplicates"] = sum(
                s.suppressed for s in self._suppressors
            )
            out["mirror_in_flight"] = self.in_flight
        return out
