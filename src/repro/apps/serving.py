"""Closed-loop multi-tenant KV serving over the EDM cluster DES.

The ROADMAP's serving north star: simulated clients drive the full
client → :class:`~repro.apps.kvstore.RemoteKvStore` → fabric → DRAM
request path, and each client issues its next YCSB operation only after
the previous response completes — a *closed loop*, so offered load backs
off under congestion exactly as real users do, instead of the open-loop
generators' fixed arrival schedule.

Shape of a run:

* The cluster's last ``memory_nodes`` nodes serve memory; clients live
  round-robin on the remaining compute nodes.  A tenant's keys shard
  across the memory nodes (``key % M`` picks the node, ``key // M`` the
  slot within the tenant's contiguous slot range), so every tenant
  touches every memory node — the all-to-all traffic disaggregation
  produces.
* Each client draws keys from its tenant's shared
  :class:`~repro.workloads.ycsb.ZipfianKeyChooser` (hot keys are hot
  across the whole tenant) and thinks for an exponential gap between
  ops.  The tenant's :class:`~repro.workloads.api.RateShape` divides the
  mean think time at the current simulated time, so diurnal or bursty
  demand emerges from the same modulation machinery the open-loop
  streams use.
* Link faults (``link_down`` / ``degraded_bw``
  :class:`~repro.scenarios.spec.FaultSpec`s) install against the EDM
  cluster's per-node links through the same
  :class:`~repro.scenarios.faults.FaultInjector` the scenario engine
  uses.  ``failover`` is a queueing-substrate mechanism and is rejected
  here at spec validation.
* Accounting is per-tenant: p50/p99/p999 request latency and the
  fraction of requests meeting the tenant's SLO, JSON-ready for the
  experiment artifacts.

Every random draw descends from the spec seed through per-tenant and
per-client substreams, and all scheduling goes through the event
kernel, so a run replays bit-identically serial vs parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.apps.kvstore import SLOT_BYTES, RemoteKvStore
from repro.errors import ConfigError
from repro.fabrics.base import ClusterConfig
from repro.fabrics.edm import EdmCluster
from repro.host.nic import Completion
from repro.workloads.api import RateShape, substream
from repro.workloads.ycsb import (
    OpType,
    YcsbWorkload,
    ZipfianKeyChooser,
    workload_by_name,
)

if TYPE_CHECKING:  # imported lazily at runtime: repro.scenarios pulls in
    # the experiment registry, which registers the serving experiment,
    # which imports this module — a top-level import would be circular.
    from repro.scenarios.spec import FaultSpec

#: Fault kinds that act on the EDM cluster's per-node links.  ``failover``
#: needs the queueing substrate's mirrored-path machinery and cannot be
#: composed with a closed-loop serving run.
SERVING_FAULT_KINDS = ("link_down", "degraded_bw")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a YCSB mix, a client population, and an SLO.

    ``think_ns`` is the mean client think time between a response and the
    next request; the tenant's ``shape`` divides it at the current
    simulated time (a 4x bursty factor quarters the think time inside the
    burst window).  ``slo_ns`` is the per-request latency SLO the
    artifacts report attainment against.
    """

    name: str
    workload: str = "A"
    clients: int = 4
    think_ns: float = 2_000.0
    keyspace: int = 256
    theta: float = 0.99
    slo_ns: float = 12_000.0
    shape: RateShape = RateShape()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant needs a name")
        workload_by_name(self.workload)  # validates the mix name
        if self.clients < 1:
            raise ConfigError(f"tenant needs >= 1 client: {self.clients}")
        if self.think_ns <= 0:
            raise ConfigError(f"think time must be positive: {self.think_ns}")
        if self.keyspace < 1:
            raise ConfigError(f"keyspace must be >= 1: {self.keyspace}")
        if self.slo_ns <= 0:
            raise ConfigError(f"SLO must be positive: {self.slo_ns}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "workload": self.workload,
            "clients": self.clients,
            "think_ns": self.think_ns,
            "keyspace": self.keyspace,
            "theta": self.theta,
            "slo_ns": self.slo_ns,
            "shape": self.shape.to_dict(),
        }


@dataclass(frozen=True)
class ServingSpec:
    """One closed-loop serving run: tenants × cluster shape × faults."""

    tenants: Tuple[TenantSpec, ...]
    num_nodes: int = 8
    memory_nodes: int = 2
    link_gbps: float = 100.0
    ops_per_client: int = 50
    seed: int = 0
    faults: Tuple["FaultSpec", ...] = ()
    fault_horizon_ns: Optional[float] = None
    deadline_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigError("serving needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"tenant names must be unique: {names}")
        if self.memory_nodes < 1:
            raise ConfigError(f"need >= 1 memory node: {self.memory_nodes}")
        if self.num_nodes < self.memory_nodes + 1:
            raise ConfigError(
                f"need at least one compute node: {self.num_nodes} nodes, "
                f"{self.memory_nodes} memory"
            )
        if self.ops_per_client < 1:
            raise ConfigError(
                f"need >= 1 op per client: {self.ops_per_client}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative: {self.seed}")
        for fault in self.faults:
            if fault.kind not in SERVING_FAULT_KINDS:
                raise ConfigError(
                    f"serving supports {', '.join(SERVING_FAULT_KINDS)} faults; "
                    f"{fault.kind!r} rides the queueing substrate"
                )
            if fault.relative and self.fault_horizon_ns is None:
                raise ConfigError(
                    "relative fault times need fault_horizon_ns: a closed "
                    "loop has no precomputed arrival span to scale against"
                )
        # ``not 0 < x < inf`` also rejects NaN, which compares false.
        if self.fault_horizon_ns is not None and not 0 < self.fault_horizon_ns < math.inf:
            raise ConfigError(
                f"fault horizon must be positive and finite: {self.fault_horizon_ns}"
            )
        if self.deadline_ns is not None and not 0 < self.deadline_ns < math.inf:
            raise ConfigError(
                f"deadline must be positive and finite: {self.deadline_ns}"
            )

    @property
    def compute_nodes(self) -> int:
        return self.num_nodes - self.memory_nodes

    @property
    def total_clients(self) -> int:
        return sum(t.clients for t in self.tenants)

    def scaled(
        self,
        *,
        ops_per_client: Optional[int] = None,
        seed: Optional[int] = None,
        num_nodes: Optional[int] = None,
    ) -> "ServingSpec":
        """A copy with overridden scale knobs (None keeps the spec value)."""
        return replace(
            self,
            ops_per_client=(
                ops_per_client if ops_per_client is not None else self.ops_per_client
            ),
            seed=seed if seed is not None else self.seed,
            num_nodes=num_nodes if num_nodes is not None else self.num_nodes,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "tenants": [t.to_dict() for t in self.tenants],
            "num_nodes": self.num_nodes,
            "memory_nodes": self.memory_nodes,
            "link_gbps": self.link_gbps,
            "ops_per_client": self.ops_per_client,
            "seed": self.seed,
            "faults": [f.to_dict() for f in self.faults],
            "fault_horizon_ns": self.fault_horizon_ns,
            "deadline_ns": self.deadline_ns,
        }


# --------------------------------------------------------------------------- #
# Accounting                                                                  #
# --------------------------------------------------------------------------- #


def latency_percentiles(latencies_ns: Sequence[float]) -> Dict[str, float]:
    """p50/p99/p999 over a latency sample (ns); empty sample → NaNs."""
    arr = np.asarray(latencies_ns, dtype=np.float64)
    if arr.size == 0:
        return {"p50_ns": float("nan"), "p99_ns": float("nan"), "p999_ns": float("nan")}
    p50, p99, p999 = np.percentile(arr, [50.0, 99.0, 99.9])
    return {"p50_ns": float(p50), "p99_ns": float(p99), "p999_ns": float(p999)}


def slo_attainment(latencies_ns: Sequence[float], slo_ns: float) -> float:
    """Fraction of requests completing within the SLO; NaN when empty."""
    arr = np.asarray(latencies_ns, dtype=np.float64)
    if arr.size == 0:
        return float("nan")
    return float(np.count_nonzero(arr <= slo_ns) / arr.size)


class TenantAccount:
    """Per-tenant ledger: every completed request's latency and op mix."""

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.issued = 0
        self.latencies_ns: List[float] = []
        self.ops: Dict[str, int] = {op.value: 0 for op in OpType}
        self.last_completed_ns = 0.0

    def record(self, op: OpType, issued_at: float, completed_at: float) -> None:
        self.ops[op.value] += 1
        self.latencies_ns.append(completed_at - issued_at)
        self.last_completed_ns = max(self.last_completed_ns, completed_at)

    @property
    def completed(self) -> int:
        return len(self.latencies_ns)

    def summary(self) -> Dict[str, object]:
        lat = self.latencies_ns
        out: Dict[str, object] = {
            "workload": self.spec.workload,
            "clients": self.spec.clients,
            "issued": self.issued,
            "completed": self.completed,
            "ops": dict(self.ops),
            "mean_ns": float(np.mean(lat)) if lat else float("nan"),
            "slo_ns": self.spec.slo_ns,
            "slo_attainment": slo_attainment(lat, self.spec.slo_ns),
        }
        out.update(latency_percentiles(lat))
        return out


# --------------------------------------------------------------------------- #
# The closed loop                                                             #
# --------------------------------------------------------------------------- #


class ClosedLoopClient:
    """One client: think → issue → await completion → think → ...

    The think gap is exponential with mean ``think_ns / shape.factor(now)``
    — rate modulation speeds the loop up rather than queueing arrivals the
    server never absorbed.  READ/UPDATE map to GET/PUT; READ_MODIFY_WRITE
    chains GET then PUT and is accounted as one request covering both
    legs.
    """

    def __init__(
        self,
        sim,
        tenant: TenantSpec,
        account: TenantAccount,
        mix: YcsbWorkload,
        chooser: ZipfianKeyChooser,
        rng: np.random.Generator,
        route: Callable[[int], Tuple[RemoteKvStore, int]],
        ops_budget: int,
    ) -> None:
        self.sim = sim
        self.tenant = tenant
        self.account = account
        self.mix = mix
        self.chooser = chooser
        self.rng = rng
        self.route = route
        self.remaining = ops_budget

    def start(self) -> None:
        self._think()

    def _think(self) -> None:
        if self.remaining <= 0:
            return
        factor = self.tenant.shape.factor(self.sim.now)
        gap = float(self.rng.exponential(self.tenant.think_ns / factor))
        self.sim.post(gap, self._issue)

    def _issue(self) -> None:
        self.remaining -= 1
        self.account.issued += 1
        op = self.mix.draw(self.rng.random())
        key = self.chooser.next_key()
        store, slot = self.route(key)
        issued_at = self.sim.now

        def done(completion: Completion) -> None:
            self.account.record(op, issued_at, completion.completed_at)
            self._think()

        if op is OpType.READ:
            store.get(slot, done)
        elif op is OpType.UPDATE:
            store.put(slot, done)
        else:
            store.read_modify_write(slot, done)


class ServingCluster:
    """Wires one :class:`ServingSpec` onto a live :class:`EdmCluster`.

    Owns the key-sharding layout, the per-(compute, memory) store grid,
    the tenant accounts, and the client population; :meth:`run` drives
    the loop to drain (or deadline) and returns the JSON-ready row.
    """

    def __init__(self, spec: ServingSpec) -> None:
        self.spec = spec
        config = ClusterConfig(
            num_nodes=spec.num_nodes,
            link_gbps=spec.link_gbps,
            seed=spec.seed,
        )
        # Tenants shard keys across the memory nodes; each tenant owns a
        # contiguous slot range on every memory node so stores never alias.
        mem = spec.memory_nodes
        self._slots_per_tenant = [-(-t.keyspace // mem) for t in spec.tenants]
        self._tenant_base: Dict[str, int] = {}
        base = 0
        for tenant, slots in zip(spec.tenants, self._slots_per_tenant):
            self._tenant_base[tenant.name] = base
            base += slots
        self.capacity = base
        memory_bytes = 1 << max(20, (self.capacity * SLOT_BYTES).bit_length())
        self.cluster = EdmCluster(config, memory_bytes=memory_bytes)
        self.sim = self.cluster.sim

        from repro.scenarios.faults import FaultInjector

        self.injector = FaultInjector(
            tuple(
                f.resolved(spec.fault_horizon_ns or 1.0) for f in spec.faults
            )
        )
        if spec.faults:
            # Link faults install through the cluster's real
            # SubstrateTopology surface (docs/TOPOLOGY.md) — the same
            # injector and surface the scenario engine uses.
            self.injector.install(self.cluster.substrate_topology())

        self._memory_ids = list(range(spec.compute_nodes, spec.num_nodes))
        self._stores: Dict[Tuple[int, int], RemoteKvStore] = {}
        self.accounts: Dict[str, TenantAccount] = {
            t.name: TenantAccount(t) for t in spec.tenants
        }
        self.clients: List[ClosedLoopClient] = []
        client_index = 0
        for t_idx, tenant in enumerate(spec.tenants):
            chooser = ZipfianKeyChooser(
                tenant.keyspace,
                tenant.theta,
                seed=int(substream(spec.seed, 101, t_idx).integers(0, 2**31)),
            )
            mix = workload_by_name(tenant.workload)
            for c_idx in range(tenant.clients):
                compute = client_index % spec.compute_nodes
                client_index += 1
                self.clients.append(
                    ClosedLoopClient(
                        sim=self.sim,
                        tenant=tenant,
                        account=self.accounts[tenant.name],
                        mix=mix,
                        chooser=chooser,
                        rng=substream(spec.seed, 202, t_idx, c_idx),
                        route=self._router(tenant.name, tenant.keyspace, compute),
                        ops_budget=spec.ops_per_client,
                    )
                )

    def _store(self, compute: int, memory: int) -> RemoteKvStore:
        pair = (compute, memory)
        if pair not in self._stores:
            self._stores[pair] = RemoteKvStore(
                self.cluster, compute_node=compute, memory_node=memory,
                capacity=self.capacity,
            )
        return self._stores[pair]

    def _router(
        self, tenant_name: str, keyspace: int, compute: int
    ) -> Callable[[int], Tuple[RemoteKvStore, int]]:
        base = self._tenant_base[tenant_name]
        mem_ids = self._memory_ids

        def route(key: int) -> Tuple[RemoteKvStore, int]:
            if not 0 <= key < keyspace:
                raise ConfigError(f"key {key} outside keyspace {keyspace}")
            memory = mem_ids[key % len(mem_ids)]
            slot = base + key // len(mem_ids)
            return self._store(compute, memory), slot

        return route

    def run(self) -> Dict[str, object]:
        for client in self.clients:
            client.start()
        self.sim.run(until=self.spec.deadline_ns)
        return self._row()

    def _row(self) -> Dict[str, object]:
        spec = self.spec
        tenants = {name: acct.summary() for name, acct in self.accounts.items()}
        all_lat = [
            lat for acct in self.accounts.values() for lat in acct.latencies_ns
        ]
        issued = sum(a.issued for a in self.accounts.values())
        completed = sum(a.completed for a in self.accounts.values())
        met = sum(
            int(lat <= acct.spec.slo_ns)
            for acct in self.accounts.values()
            for lat in acct.latencies_ns
        )
        totals: Dict[str, object] = {
            "issued": issued,
            "completed": completed,
            "incomplete": issued - completed,
            "mean_ns": float(np.mean(all_lat)) if all_lat else float("nan"),
            "slo_attainment": met / completed if completed else float("nan"),
        }
        totals.update(latency_percentiles(all_lat))
        # A drained run ends at its last completion: an entry that pops
        # later (a read's stale §3.3 timer) moves the clock, not the work.
        makespan = (
            self.sim.now
            if spec.deadline_ns is not None
            else max(a.last_completed_ns for a in self.accounts.values())
        )
        return {
            "num_nodes": spec.num_nodes,
            "memory_nodes": spec.memory_nodes,
            "clients": spec.total_clients,
            "ops_per_client": spec.ops_per_client,
            "seed": spec.seed,
            "makespan_ns": makespan,
            "events": self.sim.events_processed,
            "faults": [f.describe() for f in spec.faults],
            "fault_summary": self.injector.summary(),
            "tenants": tenants,
            "totals": totals,
        }


def run_serving(spec: ServingSpec) -> Dict[str, object]:
    """Execute one closed-loop serving run; returns a JSON-ready row."""
    return ServingCluster(spec).run()


__all__ = [
    "ClosedLoopClient",
    "SERVING_FAULT_KINDS",
    "ServingCluster",
    "ServingSpec",
    "TenantAccount",
    "TenantSpec",
    "latency_percentiles",
    "run_serving",
    "slo_attainment",
]
