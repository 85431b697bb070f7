"""EDM fabric at cluster scale: the full host + switch DES stacks (§4.3).

Builds a star topology — every node's NIC uplinks to one
:class:`~repro.switchfab.EdmSwitch` whose scheduler runs priority-PIM with
chunking — and replays an offered workload through the real protocol:
RREQs as implicit notifications, WREQs behind explicit /N/ + /G/
exchanges, data moving as granted chunks through PHY virtual circuits.

Every component schedules through a static sequence-number lane (the
workload injector is lane 0, the switch lane 1, host ``h`` lane ``2+h``;
see ``repro.sim.engine.LaneView``), so event tie order is a property of the
component that scheduled the event — not of global scheduling order.
The golden fixtures (``tests/test_edm_golden.py``) pin the event order
these lanes produce, and fault events keyed on a link's lane stay put
when unrelated wiring or scheduling calls move.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.scheduler import Policy, SchedulerConfig
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
from repro.host.nic import Completion, CompletionRouter, EdmHostNic, HostConfig
from repro.memctrl.controller import MemoryController
from repro.memctrl.dram import DramTiming
from repro.sim.context import SimContext, StatsSink
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.topology import SubstrateTopology

#: Sequence lanes are static: injector 0, switch 1, host h at 2 + h.
SWITCH_LANE = 1
HOST_LANE_BASE = 2


class EdmCluster:
    """A wired EDM cluster: N NICs, one switch, duplex links.

    All components share one :class:`SimContext` (clock + RNG + stats) but
    schedule through per-component seq lanes; pass ``context`` to join a
    cluster to an existing simulation, else a fresh one is created.
    """

    def __init__(
        self,
        config: ClusterConfig,
        policy: Policy = Policy.SRPT,
        dram_timing: Optional[DramTiming] = None,
        memory_bytes: int = 1 << 20,
        max_iterations: Optional[int] = None,
        early_release: bool = True,
        context: Optional[SimContext] = None,
    ) -> None:
        from repro.switchfab.switch import EdmSwitch  # local: avoid cycle

        self.config = config
        self.ctx = context if context is not None else SimContext(sim=Simulator())
        self.sim = self.ctx.sim
        self.router = CompletionRouter()
        scheduler_config = SchedulerConfig(
            num_ports=max(2, config.num_nodes),
            link_gbps=config.link_gbps,
            chunk_bytes=config.chunk_bytes,
            policy=policy,
            max_active_per_pair=config.max_active_per_pair,
            max_iterations=max_iterations,
            early_release=early_release,
        )
        switch_ctx = self.ctx.lane(SWITCH_LANE)
        self.switch = EdmSwitch(switch_ctx, scheduler_config)
        host_config = HostConfig(
            chunk_bytes=config.chunk_bytes,
            max_active_per_pair=config.max_active_per_pair,
        )
        timing = dram_timing if dram_timing is not None else DramTiming()
        self.nics: Dict[int, EdmHostNic] = {}
        # Per-node links, exposed through :meth:`substrate_topology` so
        # fault injectors (scenarios, serving) can block or degrade them
        # by node id on the SubstrateTopology surface.
        self.uplinks: Dict[int, Link] = {}
        self.downlinks: Dict[int, Link] = {}
        for node in range(config.num_nodes):
            # NIC and uplink share the host's lane.
            host_ctx = self.ctx.lane(HOST_LANE_BASE + node)
            nic = EdmHostNic(host_ctx, node, self.router, host_config)
            nic.attach_memory(MemoryController(memory_bytes, timing))
            uplink = Link(
                host_ctx, config.link_gbps, config.propagation_ns,
                receiver=self.switch.on_ingress, name=f"up{node}",
            )
            nic.attach_uplink(uplink)
            self.nics[node] = nic
            self.uplinks[node] = uplink
            # Downlinks transmit on behalf of the switch, so they draw
            # from the switch's lane.
            downlink = Link(
                switch_ctx, config.link_gbps, config.propagation_ns,
                receiver=nic.on_wire, name=f"down{node}",
            )
            self.switch.attach_port(node, downlink)
            self.downlinks[node] = downlink

    def substrate_topology(self) -> SubstrateTopology:
        """This cluster's fault/observability surface (docs/TOPOLOGY.md).

        Link faults schedule on each link's own lane (``link.sim``), and
        EDM rejects failover, so the context schedules nothing of its own.
        It carries a *private* StatsSink, so fault bookkeeping stays out of
        the run's ``stats``; what fired is reported by the injector's
        summary.
        """
        return SubstrateTopology(
            ctx=SimContext(sim=self.sim, rng=self.ctx.rng, stats=StatsSink()),
            uplinks=dict(self.uplinks),
            downlinks=dict(self.downlinks),
        )

    def nic(self, node: int) -> EdmHostNic:
        try:
            return self.nics[node]
        except KeyError as exc:
            raise FabricError(f"no node {node} in this cluster") from exc


class EdmFabric(Fabric):
    """The EDM fabric model for Figure 8 experiments."""

    name = "EDM"

    def __init__(
        self,
        config: ClusterConfig,
        policy: Policy = Policy.SRPT,
        zero_dram_latency: bool = True,
        max_iterations: Optional[int] = None,
        early_release: bool = True,
    ) -> None:
        super().__init__(config)
        # Scenario engine sets this to FaultInjector.install; called with
        # the cluster's SubstrateTopology before any workload event runs.
        self.topology_hook: Optional[Callable[[SubstrateTopology], None]] = None
        self.policy = policy
        self.zero_dram_latency = zero_dram_latency
        self.max_iterations = max_iterations
        self.early_release = early_release

    def _dram_timing(self) -> DramTiming:
        if self.zero_dram_latency:
            # Fabric-only measurement, matching the paper's latency metric
            # (memory access time excluded from fabric latency).
            return DramTiming(row_hit_ns=0.0, row_miss_ns=0.0, bandwidth_gbps=1e9)
        return DramTiming()

    def run(
        self,
        messages: List[OfferedMessage],
        *,
        deadline_ns: Optional[float] = None,
    ) -> FabricResult:
        ctx = self.new_context()
        cluster = EdmCluster(
            self.config,
            policy=self.policy,
            dram_timing=self._dram_timing(),
            max_iterations=self.max_iterations,
            early_release=self.early_release,
            context=ctx,
        )
        if self.topology_hook is not None:
            self.topology_hook(cluster.substrate_topology())
        result = FabricResult(fabric=self.name)

        def launch(message: OfferedMessage) -> None:
            nic = cluster.nic(message.src)

            def on_complete(completion: Completion, offered=message) -> None:
                result.records.append(
                    CompletionRecord(
                        message=offered, completed_at=completion.completed_at
                    )
                )

            address = (message.uid * 64) % (1 << 19)
            if message.is_read:
                nic.read(message.dst, address, message.size_bytes, on_complete)
            else:
                nic.write(message.dst, address, message.size_bytes, on_complete)

        offered = ctx.sim.inject_arrivals(messages, launch, key=arrival_time)
        ctx.sim.run(until=deadline_ns)
        result.incomplete = offered - len(result.records)
        ctx.stats.incr("messages_offered", offered)
        ctx.stats.incr("sim_events", ctx.sim.events_processed)
        result.stats = ctx.stats.to_dict()
        return result

    def run_with_baselines(
        self, messages: List[OfferedMessage], **kwargs
    ) -> FabricResult:
        """Run and attach unloaded baselines for normalization (Fig. 8a)."""
        result = self.run(messages, **kwargs)
        read_size, write_size = dominant_sizes(messages)
        self.attach_unloaded_baselines(result, read_size, write_size)
        return result
