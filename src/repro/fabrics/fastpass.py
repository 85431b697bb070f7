"""Fastpass baseline (§4.3: centralized *server-based* flow scheduler).

Fastpass moves scheduling to a commodity server.  The paper grants it two
idealizations — 100 Gbps of server bandwidth and infinitely fast solving
of the global scheduling problem — and shows it still collapses: every
message needs a notification to, and a grant from, the server, each a
minimum-size Ethernet frame, so the server's single link (~100x less than
the cluster's aggregate bandwidth) saturates under memory-traffic message
rates and control messages queue for ages (§4.3.1).

The model: notifications and grants traverse dedicated 100 Gbps server
links (FIFO).  Scheduling itself is free and ideal — the server assigns
the earliest timeslot at which both endpoints are free, so the *data*
plane has zero queueing.  All of Fastpass's latency is control-plane.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.fabrics.base import (
    ClusterConfig,
    CompletionRecord,
    Fabric,
    FabricResult,
    OfferedMessage,
    arrival_time,
    dominant_sizes,
)
from repro.mac.frame import frame_wire_bytes
from repro.sim.link import Link
from repro.switchfab.l2switch import PIPELINE_NS

#: Control messages (notification / grant) are minimum-size frames.
CONTROL_WIRE_BYTES = frame_wire_bytes(16)

#: The central server's link bandwidth (§4.3: 100 Gbps, idealized).
SERVER_GBPS = 100.0


class FastpassFabric(Fabric):
    """Centralized server scheduler with an idealized solver."""

    name = "Fastpass"

    #: Outstanding notifications allowed per sender; excess messages wait
    #: at the host (keeps the control queues from growing without bound).
    MAX_OUTSTANDING = 8

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
        prop = self.config.propagation_ns
        bandwidth = self.config.link_gbps

        # Ideal timeslot allocation state: when each endpoint frees up.
        src_free: Dict[int, float] = {n: 0.0 for n in range(self.config.num_nodes)}
        dst_free: Dict[int, float] = {n: 0.0 for n in range(self.config.num_nodes)}

        def schedule_data(message: OfferedMessage, grant_at: float) -> None:
            """The data plane: perfectly scheduled, zero queueing."""
            if message.is_read:
                data_src, data_dst = message.dst, message.src
            else:
                data_src, data_dst = message.src, message.dst
            start = max(grant_at, src_free[data_src], dst_free[data_dst])
            duration = frame_wire_bytes(message.size_bytes) * 8.0 / bandwidth
            src_free[data_src] = start + duration
            dst_free[data_dst] = start + duration
            # Reads pay the extra request hop to the memory node first.
            request_extra = (2 * prop + PIPELINE_NS) if message.is_read else 0.0
            complete_at = start + request_extra + duration + 2 * prop + PIPELINE_NS
            # complete_at is past now (start >= grant_at = now): pushed
            # straight onto the root lane (sim/engine.py).
            sim._push((complete_at, 0, next(sim._seq), complete, message))

        def complete(message: OfferedMessage) -> None:
            result.records.append(
                CompletionRecord(message=message, completed_at=sim.now)
            )

        # Hosts cap their outstanding notifications; excess messages queue
        # locally until grants come back.
        outstanding: Dict[int, int] = {n: 0 for n in range(self.config.num_nodes)}
        backlog: Dict[int, List[OfferedMessage]] = {
            n: [] for n in range(self.config.num_nodes)
        }

        # The server's two links: all notifications funnel in, all grants
        # funnel out.  These FIFOs are the bottleneck.
        def on_notification(message: OfferedMessage) -> None:
            # Infinitely fast solver: the grant departs immediately, but it
            # must queue on the server's egress link.
            grants_link.send(message, CONTROL_WIRE_BYTES)

        def on_grant(message: OfferedMessage) -> None:
            schedule_data(message, sim.now)
            node = message.src
            outstanding[node] -= 1
            if backlog[node]:
                launch(backlog[node].pop(0))

        notifications_link = Link(
            ctx, SERVER_GBPS, prop, receiver=on_notification, name="fp-in"
        )
        grants_link = Link(ctx, SERVER_GBPS, prop, receiver=on_grant, name="fp-out")

        def launch(message: OfferedMessage) -> None:
            node = message.src
            if outstanding[node] >= self.MAX_OUTSTANDING:
                backlog[node].append(message)
                return
            outstanding[node] += 1
            notifications_link.send(message, CONTROL_WIRE_BYTES)

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
