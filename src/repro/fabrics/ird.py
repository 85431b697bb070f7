"""IRD — idealized receiver-driven baseline (§4.3).

The paper constructs IRD as the best-case composite of Homa, pHost, NDP,
and ExpressPass: every receiver learns of new flows for it in *zero time*,
schedules senders with SRPT, and paces credits at line rate so its
downlink never queues.  What IRD cannot idealize away is the decentralized
conflict: a sender granted by several receivers simultaneously can serve
only one, so the losing receivers' granted slots are wasted — the
bandwidth under-utilization that makes IRD degrade as load grows (§4.3.1).

The model: each receiver emits one credit per chunk-time (line-rate
pacing, not stop-and-wait), always to the SRPT-first pending flow.  A
credit reaching a busy sender is wasted; the receiver only discovers this
implicitly by the chunk never arriving, and keeps pacing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fabrics.base import (
    ClusterConfig,
    CompletionRecord,
    Fabric,
    FabricResult,
    OfferedMessage,
    arrival_time,
    dominant_sizes,
)
from repro.mac.frame import MTU_PAYLOAD_BYTES, frame_wire_bytes
from repro.sim.engine import DelayLine
from repro.switchfab.l2switch import PIPELINE_NS


@dataclass
class _Flow:
    offered: OfferedMessage
    data_src: int
    data_dst: int
    remaining: int          # receiver's view (granted against)
    to_deliver: int = 0     # bytes granted and accepted, awaiting arrival
    delivered: int = 0


@dataclass
class _Receiver:
    node: int
    pending: List[_Flow] = field(default_factory=list)
    pacing: bool = False


class IrdFabric(Fabric):
    """The idealized receiver-driven scheduler."""

    name = "IRD"

    #: Credit chunk granted per pacing slot (one MTU frame).
    CHUNK_BYTES = MTU_PAYLOAD_BYTES

    def __init__(self, config: ClusterConfig) -> None:
        super().__init__(config)

    def run(
        self,
        messages: List[OfferedMessage],
        *,
        deadline_ns: Optional[float] = None,
    ) -> FabricResult:
        ctx = self.new_context()
        sim = ctx.sim
        result = FabricResult(fabric=self.name)
        receivers: Dict[int, _Receiver] = {
            n: _Receiver(node=n) for n in range(self.config.num_nodes)
        }
        sender_busy_until: Dict[int, float] = {
            n: 0.0 for n in range(self.config.num_nodes)
        }
        bandwidth = self.config.link_gbps
        prop = self.config.propagation_ns
        half_rtt = prop + PIPELINE_NS / 2.0
        # Every event below is pushed straight onto the root lane
        # (sim/engine.py) at now plus a non-negative delay; credits in
        # flight wait on a delay line of half an RTT.
        push = sim._push
        seq = sim._seq
        tx_ns_of: Dict[int, float] = {}  # payload -> serialization ns

        def tx_ns(payload: int) -> float:
            duration = tx_ns_of.get(payload)
            if duration is None:
                duration = tx_ns_of[payload] = (
                    frame_wire_bytes(payload) * 8.0 / bandwidth
                )
            return duration

        def pace(recv: _Receiver) -> None:
            """One credit slot: grant SRPT-first, re-arm after a chunk time.

            Idealization: the receiver prefers flows whose sender it
            believes is free (it saw their last chunk).  The belief is half
            an RTT stale — grants already in flight from *other* receivers
            still collide at the sender, which is the unavoidable
            decentralized conflict.
            """
            recv.pacing = False
            # Decentralized: the receiver cannot see other receivers'
            # grants, so it picks pure SRPT (the first flow with the
            # fewest bytes left) and its credit may collide at a sender
            # already serving someone else.
            flow = None
            for candidate in recv.pending:
                left = candidate.remaining
                if left > 0 and (flow is None or left < flow.remaining):
                    flow = candidate
            if flow is None:
                return
            chunk = min(self.CHUNK_BYTES, flow.remaining)
            flow.remaining -= chunk
            credit_flight((recv, flow, chunk))
            arm(recv, tx_ns(chunk))

        def arm(recv: _Receiver, delay: float) -> None:
            if recv.pacing:
                return
            recv.pacing = True
            push((sim._now + delay, 0, next(seq), pace, recv))

        # Grants colliding at a busy sender queue there (Homa-style) and are
        # served in arrival order when the sender frees up.  The conflict
        # cost is the receiver's downlink idling while its granted data sits
        # behind another receiver's transmission.
        sender_queue: Dict[int, List] = {
            n: [] for n in range(self.config.num_nodes)
        }

        def sender_side(credit: Tuple[_Receiver, _Flow, int]) -> None:
            recv, flow, chunk = credit
            sender = flow.data_src
            if sender_busy_until[sender] > sim.now and len(sender_queue[sender]) >= 2:
                # The sender is transmitting and already holds a queued
                # grant: this credit is wasted.  The receiver re-adds the
                # bytes and keeps pacing — bandwidth it cannot recover.
                flow.remaining += chunk
                arm(recv, 0.0)
                return
            sender_queue[sender].append(credit)
            if sender_busy_until[sender] <= sim.now:
                serve_sender(sender)

        credit_flight = DelayLine(sim, half_rtt, sender_side).post

        def serve_sender(sender: int) -> None:
            if not sender_queue[sender] or sender_busy_until[sender] > sim.now:
                return
            credit = sender_queue[sender].pop(0)
            duration = tx_ns(credit[2])
            now = sim._now
            sender_busy_until[sender] = now + duration
            arrive_at = now + duration + half_rtt
            push((arrive_at, 0, next(seq), chunk_arrived, credit))
            push((now + duration, 0, next(seq), serve_sender, sender))

        def chunk_arrived(credit: Tuple[_Receiver, _Flow, int]) -> None:
            recv, flow, chunk = credit
            flow.delivered += chunk
            if flow.delivered >= flow.offered.size_bytes:
                recv.pending.remove(flow)
                result.records.append(
                    CompletionRecord(message=flow.offered, completed_at=sim.now)
                )

        def launch(message: OfferedMessage) -> None:
            if message.is_read:
                flow = _Flow(
                    offered=message,
                    data_src=message.dst,
                    data_dst=message.src,
                    remaining=message.size_bytes,
                )
                recv = receivers[message.src]
            else:
                flow = _Flow(
                    offered=message,
                    data_src=message.src,
                    data_dst=message.dst,
                    remaining=message.size_bytes,
                )
                recv = receivers[message.dst]
            recv.pending.append(flow)
            arm(recv, 0.0)

        sim.inject_arrivals(messages, launch, key=arrival_time)
        sim.run(until=deadline_ns)
        result.incomplete = len(messages) - len(result.records)
        ctx.stats.incr("messages_offered", len(messages))
        ctx.stats.incr("sim_events", sim.events_processed)
        result.stats = ctx.stats.to_dict()
        return result

    def run_with_baselines(
        self, messages: List[OfferedMessage], **kwargs
    ) -> FabricResult:
        result = self.run(messages, **kwargs)
        read_size, write_size = dominant_sizes(messages)
        self.attach_unloaded_baselines(result, read_size, write_size)
        return result
