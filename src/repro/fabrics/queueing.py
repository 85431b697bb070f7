"""Shared queueing substrate for the MAC-layer baseline fabrics (§4.3).

DCTCP, pFabric, PFC/DCQCN, and CXL all ride on the same machinery:

* **Hosts** inject messages as MAC frames (64 B minimum, MTU segmentation),
  paced by a per-host rate factor that the protocol's congestion feedback
  adjusts (multiplicative decrease on marks/CNPs, additive recovery).
* **The switch** runs the Table 1 L2 pipeline, then either output-queues
  frames per egress port (reactive protocols) or holds them in per-ingress
  FIFOs subject to egress pause/credit state (lossless protocols, which is
  where head-of-line blocking comes from).
* **Reads** are modelled faithfully as an RREQ frame to the memory node
  followed by a response message flowing back through the same fabric.
* **Drops** (finite buffers) trigger sender timeouts — the §2.4 point that
  single-frame memory messages cannot fast-retransmit.

Protocol personalities plug in via :class:`ProtocolPolicy`.  Every host
hangs off one :class:`BaselineSwitch` (§4.3's single-switch cluster),
whose egress ports are keyed by destination node id.

The :class:`BaselineSwitch` resolves its policy once, at wiring time:
lossy vs pause vs credit, FIFO vs SRPT, and the buffer/ECN thresholds
become plain attributes, so the per-frame path tests no enum and runs no
mechanism its protocol lacks.  That resolution adds, removes and
reorders no simulated event — the baseline golden fixture pins it.

The per-frame path is kept short.  The two constant-delay stages, the
switch's L2 pipeline and each host's ACK echo, wait on delay lines
(:class:`~repro.sim.engine.DelayLine`), so the event heap holds one
entry per line instead of one per frame in flight, with unchanged keys
(docs/DETERMINISM.md §2).  A lossy switch's host uplinks deliver
straight into its pipeline line.  Host pacing and egress service push
their entries with prebound callbacks, and each :class:`_EgressState`
carries its egress link, so serving a port needs no lookup by port.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import FabricError
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
from repro.sim.engine import MAX_EVENT_TIME, DelayLine, Process, Simulator
from repro.sim.link import Link
from repro.switchfab.l2switch import PIPELINE_NS
from repro.topology import SubstrateTopology

#: Wire size of an RREQ frame: 8 B payload in a minimum Ethernet frame.
RREQ_WIRE_BYTES = frame_wire_bytes(8)

#: Retransmission timeout for dropped frames (§2.4: "typically several us").
DEFAULT_RTO_NS = 5_000.0


class QueueDiscipline(enum.Enum):
    FIFO = "fifo"
    SRPT = "srpt"  # pFabric: priority = remaining message bytes


class LosslessMode(enum.Enum):
    NONE = "none"        # drops allowed (finite buffer) or unbounded
    PAUSE = "pause"      # PFC: XOFF/XON thresholds, pause upstream
    CREDIT = "credit"    # CXL: per-egress credit pool


@dataclass
class ProtocolPolicy:
    """The knobs that differentiate the MAC-layer baselines."""

    name: str
    discipline: QueueDiscipline = QueueDiscipline.FIFO
    lossless: LosslessMode = LosslessMode.NONE
    ecn_threshold_bytes: Optional[int] = None     # mark above this depth
    buffer_bytes: Optional[int] = None            # drop above this depth
    pause_xoff_bytes: int = 20_000
    pause_xon_bytes: int = 10_000
    credit_bytes: int = 4_096
    rate_recover: float = 0.05      # additive recovery step per window
    window_ns: float = 1_000.0      # control-loop window (≈ one RTT)
    dctcp_g: float = 1.0 / 16.0     # EWMA gain for the marked fraction
    min_rate_factor: float = 0.05
    rto_ns: float = DEFAULT_RTO_NS
    use_rate_control: bool = True

    def __post_init__(self) -> None:
        # Retransmit timers are pushed straight onto the event heap.
        if not 0 <= self.rto_ns < MAX_EVENT_TIME:
            raise FabricError(f"rto_ns must be finite and >= 0: {self.rto_ns}")


@dataclass(slots=True)
class FlowMessage:
    """Per-offered-message bookkeeping inside a baseline run."""

    offered: OfferedMessage
    data_src: int             # who transmits the payload (dst for reads)
    data_dst: int
    data_bytes: int
    packets_total: int = 0
    packets_delivered: int = 0
    remaining_bytes: int = 0
    request_delivered: bool = False
    completed_at: Optional[float] = None

    def __post_init__(self) -> None:
        self.packets_total = -(-self.data_bytes // MTU_PAYLOAD_BYTES)
        self.remaining_bytes = self.data_bytes


@dataclass(slots=True)
class Frame:
    """A MAC frame in flight."""

    src: int
    dst: int
    wire_bytes: int
    flow: FlowMessage
    seq: int
    is_request: bool = False
    marked: bool = False

    @property
    def priority(self) -> float:
        """pFabric priority: remaining bytes of the flow (lower wins)."""
        return float(self.flow.remaining_bytes)


class BaselineHost(Process):
    """A host with a paced transmit queue and congestion state."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        link_gbps: float,
        policy: ProtocolPolicy,
    ) -> None:
        super().__init__(sim, f"host{node_id}")
        self.node_id = node_id
        self.link_gbps = link_gbps
        self.policy = policy
        self.uplink: Optional[Link] = None
        self._rate_control = policy.use_rate_control
        self.rate_factor = 1.0
        self.alpha = 0.0
        self._queue: Deque[Frame] = deque()
        self._next_send_at = 0.0
        self._pump_armed = False
        self._send = self._send_head  # bound once: every pump entry carries it
        self._window_armed = False
        self._acks_total = 0
        self._acks_marked = 0

    def inject(self, frame: Frame) -> None:
        self._queue.append(frame)
        if not self._pump_armed:
            self._pump()

    def _pump(self) -> None:
        """Arm the send of the queue's head at the paced time.

        Pushed straight onto the lane (sim/engine.py) with the key
        ``post(max(0.0, next_send_at - now), …)`` gives it: the delay is
        finite and not negative.
        """
        self._pump_armed = True
        now = self._clock._now
        delay = self._next_send_at - now
        at = now + delay if delay > 0.0 else now
        self._push((at, 0, next(self._seq), self._send, None))

    def _send_head(self, _: None) -> None:
        queue = self._queue
        frame = queue.popleft()
        if self.uplink is None:
            raise FabricError(f"host {self.node_id} has no uplink")
        self.uplink.send(frame, frame.wire_bytes)
        # Pacing: the next frame may start once this one would finish at the
        # host's current (possibly reduced) rate.
        paced = frame.wire_bytes * 8.0 / (self.link_gbps * self.rate_factor)
        now = self._clock._now
        self._next_send_at = next_at = now + paced
        if queue:
            # _pump inlined.  ``next_at - now`` is not negative, and
            # adding it back to ``now`` keeps the key ``post`` gave,
            # which may differ from ``next_at`` in the last bit.
            self._push((now + (next_at - now), 0, next(self._seq), self._send, None))
        else:
            self._pump_armed = False

    # -- congestion feedback (DCTCP control law) ------------------------ #

    def on_ack(self, marked: bool) -> None:
        """Per-frame feedback: accumulate the marked fraction.

        Every ``window_ns`` the host updates its EWMA of the marked
        fraction (DCTCP's alpha) and cuts its rate by ``1 - alpha/2`` if
        any marks arrived, else recovers additively — so mild congestion
        produces mild slowdown, the property that keeps DCTCP stable at
        high load.
        """
        if not self._rate_control:
            return
        self._acks_total += 1
        if marked:
            self._acks_marked += 1
        if not self._window_armed:
            self._window_armed = True
            self.post(self.policy.window_ns, self._close_window)

    def _close_window(self) -> None:
        self._window_armed = False
        if self._acks_total == 0:
            return
        fraction = self._acks_marked / self._acks_total
        g = self.policy.dctcp_g
        self.alpha = (1 - g) * self.alpha + g * fraction
        if self._acks_marked > 0:
            self.rate_factor = max(
                self.policy.min_rate_factor,
                self.rate_factor * (1 - self.alpha / 2),
            )
        else:
            self.rate_factor = min(
                1.0, self.rate_factor + self.policy.rate_recover
            )
        self._acks_total = 0
        self._acks_marked = 0
        if self._queue or self.rate_factor < 1.0:
            self._window_armed = True
            self.post(self.policy.window_ns, self._close_window)


@dataclass(slots=True)
class _EgressState:
    link: Link
    queued: List[Frame] = field(default_factory=list)
    queued_bytes: int = 0
    paused: bool = False
    credits: int = 0
    serving: bool = False


class BaselineSwitch(Process):
    """The shared switch: L2 pipeline + per-protocol queue behaviour.

    Ports are keyed by host node id: a frame leaves through
    ``egress[frame.dst]``, and in lossless modes it waits in
    ``ingress[frame.src]``.
    """

    def __init__(
        self,
        sim: Simulator,
        policy: ProtocolPolicy,
        pipeline_ns: float = PIPELINE_NS,
    ) -> None:
        super().__init__(sim, f"{policy.name}-switch")
        if not 0 <= pipeline_ns < MAX_EVENT_TIME:
            raise FabricError(f"pipeline delay must be finite and >= 0: {pipeline_ns}")
        self.policy = policy
        # The policy resolved once: the per-frame path reads these flags.
        self._lossy = policy.lossless is LosslessMode.NONE
        self._pause = policy.lossless is LosslessMode.PAUSE
        self._credit = policy.lossless is LosslessMode.CREDIT
        self._srpt = policy.discipline is QueueDiscipline.SRPT
        self._buffer_bytes = policy.buffer_bytes
        self._ecn_bytes = policy.ecn_threshold_bytes
        # The L2 pipeline is a constant delay, so its frames wait on one
        # delay line (sim/engine.py), not one heap entry each.  Lossy
        # switches queue at egress and ignore the ingress port, so a
        # host uplink delivers straight to the line.
        if self._lossy:
            self._pipeline = DelayLine(self.sim, pipeline_ns, self._enqueue_egress)
            self.on_ingress: Callable[[Frame], None] = self._pipeline.post
        else:
            self._pipeline = DelayLine(self.sim, pipeline_ns, self._hold_ingress)
            self.on_ingress = self._ingress_from_host
        self.egress: Dict[int, _EgressState] = {}
        self.ingress: Dict[int, Deque[Frame]] = {}
        #: Frames waiting in all ingress FIFOs (lossless modes only).
        self._ingress_backlog = 0
        self.drops = 0
        self.on_mark: Optional[Callable[[Frame], None]] = None
        self.on_drop: Optional[Callable[[Frame], None]] = None

    def attach_port(self, node_id: int, link: Link) -> None:
        self.egress[node_id] = _EgressState(link, credits=self.policy.credit_bytes)
        self.ingress[node_id] = deque()

    # -- ingress --------------------------------------------------------- #

    # ``on_ingress(frame)``, bound in ``__init__``, is the receiver of host
    # uplinks: the frame enters the L2 pipeline, and the ingress port is
    # the sending host.

    def _ingress_from_host(self, frame: Frame) -> None:
        self._pipeline.post((frame, frame.src))

    def _hold_ingress(self, arrival: Tuple[Frame, int]) -> None:
        """Lossless modes: the frame joins its ingress FIFO after the pipeline."""
        frame, port = arrival
        self.ingress[port].append(frame)
        self._ingress_backlog += 1
        self._advance_ingress(port)

    def _advance_ingress(self, src: int) -> None:
        """Move ingress head frames to egress while permitted (HoL point)."""
        queue = self.ingress[src]
        while queue:
            head = queue[0]
            state = self.egress[head.dst]
            if self._pause:
                if state.paused:
                    return  # head-of-line blocked
            elif state.credits < head.wire_bytes:
                return  # out of credits: blocked
            queue.popleft()
            self._ingress_backlog -= 1
            if self._credit:
                state.credits -= head.wire_bytes
            self._enqueue_egress(head)

    # -- egress ------------------------------------------------------------ #

    def _enqueue_egress(self, frame: Frame) -> None:
        state = self.egress[frame.dst]
        depth = state.queued_bytes
        buffer_bytes = self._buffer_bytes
        if buffer_bytes is not None and depth + frame.wire_bytes > buffer_bytes:
            self._drop(frame, state)
            return
        ecn_bytes = self._ecn_bytes
        if ecn_bytes is not None and depth >= ecn_bytes:
            frame.marked = True
            if self.on_mark is not None:
                self.on_mark(frame)
        if self._srpt:
            # Insert by priority (stable for equal priorities).  Index 0 is
            # the frame currently on the wire — it cannot be displaced.
            floor = 1 if state.serving and state.queued else 0
            idx = len(state.queued)
            for i, other in enumerate(state.queued):
                if i < floor:
                    continue
                if frame.priority < other.priority:
                    idx = i
                    break
            state.queued.insert(idx, frame)
        else:
            state.queued.append(frame)
        state.queued_bytes += frame.wire_bytes
        if self._pause:
            self._update_pause(state)
        if len(state.queued) == 1:  # was empty, so not serving
            self._serve(state)

    def _drop(self, frame: Frame, state: _EgressState) -> None:
        if self._srpt and state.queued:
            # pFabric drops the *lowest priority* resident frame instead,
            # if the arriving frame outranks it.
            worst_idx = max(
                range(len(state.queued)), key=lambda i: state.queued[i].priority
            )
            worst = state.queued[worst_idx]
            if frame.priority < worst.priority and worst_idx != 0:
                state.queued.pop(worst_idx)
                state.queued_bytes -= worst.wire_bytes
                self.drops += 1
                if self.on_drop is not None:
                    self.on_drop(worst)
                self._enqueue_egress(frame)
                return
        self.drops += 1
        if self.on_drop is not None:
            self.on_drop(frame)

    def _serve(self, state: _EgressState) -> None:
        """Put the head of an idle, non-empty port on the wire."""
        state.serving = True
        frame = state.queued[0]
        link = state.link
        link.send(frame, frame.wire_bytes)
        # The head stays at index 0 until it is served (SRPT inserts and
        # pFabric evictions never touch it), so the entry carries only the
        # port's state; busy_until is not before now.
        self._push((link.busy_until, 0, next(self._seq), self._served, state))

    def _served(self, state: _EgressState) -> None:
        state.serving = False
        frame = state.queued.pop(0)
        state.queued_bytes -= frame.wire_bytes
        if self._credit:
            state.credits += frame.wire_bytes
            self._kick_all_ingress()
        elif self._pause:
            self._update_pause(state)
        # A kick above may have re-served this port already.
        if state.queued and not state.serving:
            self._serve(state)

    def _update_pause(self, state: _EgressState) -> None:
        """PFC only: XOFF above the high mark, XON (and drain) below the low."""
        if not state.paused and state.queued_bytes >= self.policy.pause_xoff_bytes:
            state.paused = True
        elif state.paused and state.queued_bytes <= self.policy.pause_xon_bytes:
            state.paused = False
            self._kick_all_ingress()

    def _kick_all_ingress(self) -> None:
        if not self._ingress_backlog:
            return
        for src in self.ingress:
            if self.ingress[src]:
                self._advance_ingress(src)


class QueueingFabric(Fabric):
    """A complete baseline fabric parameterized by a ProtocolPolicy.

    ``topology_hook``, when set, is called once per :meth:`run` with a
    :class:`SubstrateTopology` after the cluster is wired and before the
    event loop starts — the attachment point for fault injection.
    """

    def __init__(self, config: ClusterConfig, policy: ProtocolPolicy) -> None:
        super().__init__(config)
        self.policy = policy
        self.name = policy.name
        self.topology_hook: Optional[Callable[[SubstrateTopology], None]] = None

    def run(
        self,
        messages: Sequence[OfferedMessage],
        *,
        deadline_ns: Optional[float] = None,
    ) -> FabricResult:
        config = self.config
        ctx = self.new_context()
        sim = ctx.sim
        result = FabricResult(fabric=self.name)

        switch = BaselineSwitch(ctx, self.policy)
        hosts: List[BaselineHost] = []
        uplinks: Dict[int, Link] = {}
        downlinks: Dict[int, Link] = {}
        for node in range(config.num_nodes):
            host = BaselineHost(ctx, node, config.link_gbps, self.policy)
            host.uplink = uplinks[node] = Link(
                ctx, config.link_gbps, config.propagation_ns,
                receiver=switch.on_ingress, name=f"up{node}",
            )
            downlinks[node] = Link(
                ctx, config.link_gbps, config.propagation_ns,
                name=f"down{node}",
            )
            switch.attach_port(node, downlinks[node])
            hosts.append(host)

        # An ACK/ECN echo reaches the sender about one RTT after delivery.
        feedback_delay = 2 * config.propagation_ns + PIPELINE_NS
        # Each host's ACKs wait on a delay line on the root lane, and
        # retransmit timers are pushed straight onto it (sim/engine.py):
        # both delays are non-negative constants.
        acks = [DelayLine(sim, feedback_delay, host.on_ack).post for host in hosts]
        push = sim._push
        seq = sim._seq

        def deliver(frame: Frame) -> None:
            flow = frame.flow
            if frame.is_request:
                if flow.request_delivered:
                    return  # duplicate from a retransmit race
                flow.request_delivered = True
                _launch_data(flow)
                return
            # Per-frame ACK back to the data sender (carries the ECN echo).
            acks[frame.src](frame.marked)
            now = sim._now
            flow.packets_delivered += 1
            flow.remaining_bytes = max(
                0, flow.remaining_bytes - MTU_PAYLOAD_BYTES
            )
            if (
                flow.packets_delivered >= flow.packets_total
                and flow.completed_at is None
            ):
                flow.completed_at = now
                result.records.append(
                    CompletionRecord(message=flow.offered, completed_at=now)
                )

        for downlink in downlinks.values():
            downlink.connect(deliver)

        wire_bytes_of: Dict[int, int] = {}  # payload -> frame wire bytes

        def _launch_data(flow: FlowMessage) -> None:
            host = hosts[flow.data_src]
            remaining = flow.data_bytes
            seq = 0
            while remaining > 0:
                payload = min(remaining, MTU_PAYLOAD_BYTES)
                wire_bytes = wire_bytes_of.get(payload)
                if wire_bytes is None:
                    wire_bytes = wire_bytes_of[payload] = frame_wire_bytes(payload)
                frame = Frame(flow.data_src, flow.data_dst, wire_bytes, flow, seq)
                host.inject(frame)
                remaining -= payload
                seq += 1

        def launch(message: OfferedMessage) -> None:
            if message.is_read:
                flow = FlowMessage(
                    offered=message,
                    data_src=message.dst,
                    data_dst=message.src,
                    data_bytes=message.size_bytes,
                )
                rreq = Frame(
                    src=message.src,
                    dst=message.dst,
                    wire_bytes=RREQ_WIRE_BYTES,
                    flow=flow,
                    seq=-1,
                    is_request=True,
                )
                hosts[message.src].inject(rreq)
            else:
                flow = FlowMessage(
                    offered=message,
                    data_src=message.src,
                    data_dst=message.dst,
                    data_bytes=message.size_bytes,
                )
                _launch_data(flow)

        def on_drop(frame: Frame) -> None:
            # A dropped single-frame memory message can only recover via
            # timeout (§2.4 limitation 6).
            push((sim._now + self.policy.rto_ns, 0, next(seq),
                  hosts[frame.src].inject, frame))

        switch.on_drop = on_drop

        if self.topology_hook is not None:
            self.topology_hook(
                SubstrateTopology(ctx=ctx, uplinks=uplinks, downlinks=downlinks)
            )

        sim.inject_arrivals(messages, launch, key=arrival_time)
        sim.run(until=deadline_ns)
        result.incomplete = len(messages) - len(result.records)
        ctx.stats.incr("messages_offered", len(messages))
        ctx.stats.incr("frames_dropped", switch.drops)
        ctx.stats.incr("sim_events", sim.events_processed)
        result.stats = ctx.stats.to_dict()
        return result

    def run_with_baselines(
        self, messages: Sequence[OfferedMessage], **kwargs
    ) -> FabricResult:
        result = self.run(messages, **kwargs)
        read_size, write_size = dominant_sizes(messages)
        self.attach_unloaded_baselines(result, read_size, write_size)
        return result
