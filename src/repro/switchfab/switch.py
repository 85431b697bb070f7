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

from functools import partial
from typing import Dict, Optional

from repro.core.clock import PCS_CYCLE_NS
from repro.core.messages import MessageType
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
from repro.sim.engine import EventHandle, Process, Simulator
from repro.sim.link import Link


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
        self.egress: Dict[int, Link] = {}
        self._round_armed_at: Optional[float] = None
        self._round_handle: Optional[EventHandle] = None
        self._kernel = self._clock._queue
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

    def _egress_for(self, node_id: int) -> Link:
        try:
            return self.egress[node_id]
        except KeyError as exc:
            raise FabricError(f"switch has no port for node {node_id}") from exc

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
                partial(self._forward, transfer),
            ))
        elif kind == KIND_NOTIFY:
            self._push((
                self._clock._now + self._d_classify, 0, next(self._seq),
                partial(self._accept_notification, transfer),
            ))
        elif kind == KIND_REQUEST:
            self._push((
                self._clock._now + self._d_classify, 0, next(self._seq),
                partial(self._accept_request, transfer),
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
        self._egress_for(transfer.dst).send(transfer, transfer.blocks * 8)
        self.transfers_forwarded += 1

    # ------------------------------------------------------------------ #
    # scheduling rounds                                                  #
    # ------------------------------------------------------------------ #

    def _arm_round(self, at: Optional[float] = None) -> None:
        """Arm a matching round.

        A fresh demand pays the matching latency (``3 log2(N) / R`` ns)
        before its first grant.  Rounds chained off port releases fire *at*
        the release instant: the hardware pipelines the next matching with
        the current chunk's reception (§3.1.3 sizes the chunk so the link
        stays busy while the next maximal matching forms).
        """
        fire_at = self._clock._now + self._d_matching if at is None else at
        if self._round_armed_at is not None and self._round_armed_at <= fire_at:
            return  # a round is already armed at least as early
        if self._round_handle is not None:
            # Supersede the later round instead of leaving it to fire as a
            # duplicate: the kernel lazily deletes the tombstone.
            self._round_handle.cancel()
        self._round_armed_at = fire_at
        # The cancellable event is its own handle, pushed straight onto the
        # lane: fire_at is now plus a positive latency, or a pending port
        # release, which the round that read it left strictly in the future.
        seq = next(self._seq)
        event = self._round_handle = EventHandle(
            fire_at, 1, seq, self._run_round, self._kernel
        )
        self._push((fire_at, 1, seq, event))

    def _run_round(self) -> None:
        self._round_armed_at = None
        self._round_handle = None
        now = self._clock._now
        scheduler = self.scheduler
        issued = scheduler.schedule(now)
        push = self._push
        seq = self._seq
        for item in issued:
            demand = item.demand
            if item.is_first_for_rres and demand.carried_request is not None:
                # The buffered RREQ/RMWREQ *is* the first grant (§3.1.1
                # step 4): forward it to the memory node through the new
                # circuit.
                push((
                    now + self._d_forward, 0, next(seq),
                    partial(self._forward, demand.carried_request),
                ))
                continue
            # Otherwise a /G/ block to the data sender (WREQ: the compute
            # node; RRES chunks beyond the first: the memory node).
            sender = demand.src
            transfer = grant_transfer(item.grant, sender)
            push((
                now + self._d_tx_grant, 0, next(seq),
                partial(self._egress_for(sender).send, transfer, transfer.blocks * 8),
            ))
        if scheduler.pending_demands:
            # schedule() already expired every release due by now, so the
            # heap's head is the next one, without a second expiry pass.
            next_release = scheduler.next_release()
            if next_release is not None:
                self._arm_round(at=next_release)
            elif not issued:
                raise FabricError(
                    "scheduler has pending demands, no busy ports, and made "
                    "no matches — inconsistent state"
                )
            else:
                self._arm_round()
