"""EDM switch network stack (§3.2.2) with the in-network scheduler (§3.1).

The switch classifies incoming blocks in one cycle.  /N/ blocks and
RREQ/RMWREQ /M*/ runs become demands in the scheduler's notification
queues (the request itself is buffered — its later forwarding to the
memory node is the implicit first grant for the RRES).  WREQ/RRES data
chunks are forwarded RX→TX through the virtual circuit in 4 cycles with no
parsing or table lookups.  Grants leave as /G/ blocks in one cycle.

A matching round costs the scheduler's matching latency
(``3·log2(N)/R`` ns on average, §3.1.3); rounds are (re)armed whenever a
new demand arrives or a port's busy window expires.  The simulated clock
only moves forward, which the scheduler's incremental rounds rely on.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.clock import PCS_CYCLE_NS
from repro.core.messages import Grant, MessageType
from repro.core.scheduler import CentralScheduler, Demand, SchedulerConfig
from repro.errors import FabricError
from repro.host import cycles
from repro.host.wire import (
    KIND_DATA_CHUNK,
    KIND_NOTIFY,
    KIND_REQUEST,
    WireTransfer,
    grant_transfer,
)
from repro.sim.engine import Process, Simulator
from repro.sim.link import Link


class _EgressPorts(dict):
    """Egress links by node id; a node with no port is a FabricError."""

    def __missing__(self, node_id: int) -> Link:
        raise FabricError(f"switch has no port for node {node_id}")


class EdmSwitch(Process):
    """An EDM-capable switch with one scheduler and per-port egress links."""

    def __init__(
        self,
        sim: Simulator,
        scheduler_config: SchedulerConfig,
        cycle_ns: float = PCS_CYCLE_NS,
    ) -> None:
        super().__init__(sim, "edm-switch")
        self.scheduler = CentralScheduler(scheduler_config)
        self.cycle_ns = cycle_ns
        self.egress: Dict[int, Link] = _EgressPorts()
        self._round_armed_at: Optional[float] = None
        # Generation of the armed round: a superseded one still pops, finds
        # its generation stale and does nothing (_run_round).
        self._round_gen = 0
        self.transfers_forwarded = 0
        self.demands_accepted = 0
        # Per-event pipeline delays and the matching latency, fixed at
        # construction.
        self._d_classify = cycles.SWITCH_RX_CLASSIFY_CYCLES * cycle_ns
        self._d_classify_forward = (
            cycles.SWITCH_RX_CLASSIFY_CYCLES + cycles.SWITCH_FORWARD_CYCLES
        ) * cycle_ns
        self._d_forward = cycles.SWITCH_FORWARD_CYCLES * cycle_ns
        self._d_tx_grant = cycles.SWITCH_TX_GRANT_CYCLES * cycle_ns
        self._d_matching = scheduler_config.matching_latency_ns

    # ------------------------------------------------------------------ #
    # wiring                                                             #
    # ------------------------------------------------------------------ #

    def attach_port(self, node_id: int, egress_link: Link) -> None:
        self.egress[node_id] = egress_link

    def _cycles(self, count: int) -> float:
        return count * self.cycle_ns

    # ------------------------------------------------------------------ #
    # ingress                                                            #
    # ------------------------------------------------------------------ #

    def on_ingress(self, transfer: WireTransfer) -> None:
        """Entry point for a transfer arriving from any host uplink."""
        kind = transfer.kind
        # Each stage is a fire-and-forget entry pushed straight onto the
        # switch's lane (engine module docstring): the delays are positive
        # constants, so the time checks cannot fire.
        if kind == KIND_DATA_CHUNK:
            # Virtual circuit: no parsing, 4 cycles RX->TX clock movement.
            self._push((
                self._clock._now + self._d_classify_forward, 0, next(self._seq),
                self._forward, transfer,
            ))
        elif kind == KIND_NOTIFY:
            self._push((
                self._clock._now + self._d_classify, 0, next(self._seq),
                self._accept_notification, transfer,
            ))
        elif kind == KIND_REQUEST:
            self._push((
                self._clock._now + self._d_classify, 0, next(self._seq),
                self._accept_request, transfer,
            ))
        else:
            raise FabricError(f"switch cannot ingest transfer kind {transfer.kind}")

    def _accept_notification(self, transfer: WireTransfer) -> None:
        notification = transfer.notification
        assert notification is not None
        demand = Demand(
            src=notification.src,
            dst=notification.dst,
            message_id=notification.message_id,
            total_bytes=notification.size_bytes,
            notified_at=self._clock._now,
            message_uid=notification.message_uid,
        )
        self.scheduler.notify(demand)
        self.demands_accepted += 1
        self._arm_round()

    def _accept_request(self, transfer: WireTransfer) -> None:
        """Buffer an RREQ/RMWREQ; it implicitly notifies for its RRES."""
        message = transfer.message
        assert message is not None
        if message.mtype not in (MessageType.RREQ, MessageType.RMWREQ):
            raise FabricError(f"unexpected request type {message.mtype.value}")
        demand = Demand(
            src=message.dst,  # the RRES flows memory -> compute
            dst=message.src,
            message_id=message.message_id,
            total_bytes=message.response_demand_bytes,
            notified_at=self._clock._now,
            message_uid=message.uid,
            carried_request=transfer,
        )
        self.scheduler.notify(demand)
        self.demands_accepted += 1
        self._arm_round()

    def _forward(self, transfer: WireTransfer) -> None:
        self.egress[transfer.dst].send(transfer, transfer.blocks * 8)
        self.transfers_forwarded += 1

    def _send_grant(self, grant: Grant) -> None:
        """Emit a /G/ block to the granted sender (1 TX cycle after the round)."""
        transfer = grant_transfer(grant, grant.src)
        self.egress[grant.src].send(transfer, transfer.blocks * 8)

    # ------------------------------------------------------------------ #
    # scheduling rounds                                                  #
    # ------------------------------------------------------------------ #

    def _arm_round(self) -> None:
        """Arm a matching round for a fresh demand.

        A fresh demand pays the matching latency (``3 log2(N) / R`` ns)
        before its first grant.  Rounds chained off port releases are
        armed by :meth:`_run_round` itself and fire *at* the release
        instant: the hardware pipelines the next matching with the current
        chunk's reception (§3.1.3 sizes the chunk so the link stays busy
        while the next maximal matching forms).
        """
        fire_at = self._clock._now + self._d_matching
        if self._round_armed_at is not None and self._round_armed_at <= fire_at:
            return  # a round is already armed at least as early
        # A later round already queued is superseded, not removed: the new
        # generation makes it a no-op when it pops.
        self._round_armed_at = fire_at
        self._round_gen += 1
        # Pushed straight onto the lane: fire_at is now plus a positive
        # latency.
        self._push((
            fire_at, 1, next(self._seq), self._run_round, self._round_gen,
        ))

    def _run_round(self, gen: int) -> None:
        if gen != self._round_gen:
            self._clock.discard()  # superseded by an earlier round
            return
        self._round_armed_at = None
        now = self._clock._now
        scheduler = self.scheduler
        issued = scheduler.schedule(now)
        push = self._push
        seq = self._seq
        for item in issued:
            if item.__class__ is Grant:
                # A /G/ block to the data sender (WREQ: the compute node;
                # RRES chunks beyond the first: the memory node).
                push((now + self._d_tx_grant, 0, next(seq), self._send_grant, item))
            else:
                # The buffered RREQ/RMWREQ *is* the first grant (§3.1.1
                # step 4): forward it to the memory node through the new
                # circuit.
                push((now + self._d_forward, 0, next(seq), self._forward, item))
        if scheduler.bank._total:
            # schedule() already expired every release due by now, so the
            # heap's head is the next one, without a second expiry pass.
            releases = scheduler._releases
            if releases:
                fire_at = releases[0][0]
            elif issued:
                fire_at = now + self._d_matching
            else:
                raise FabricError(
                    "scheduler has pending demands, no busy ports, and made "
                    "no matches — inconsistent state"
                )
            # Arm the next round as _arm_round would: this round cleared
            # the armed slot, so nothing armed can be earlier.
            self._round_armed_at = fire_at
            self._round_gen = gen = gen + 1
            push((fire_at, 1, next(seq), self._run_round, gen))
