"""Cluster-scale fabric models: EDM plus the six §4.3 baselines.

Fabrics register through a capability-tagged registry: every model
carries a set of tags describing what it can do, so higher layers (the
scenario engine in particular) can select fabrics by capability instead
of hard-coding names.  Tags in use:

* ``queueing`` — rides the shared MAC-layer queueing substrate.
* ``faultable`` — exposes the substrate's ``topology_hook``, so the
  scenario engine can inject link/switch faults mid-run (including
  planned failover).
* ``linkfault`` — exposes link up/down/degrade faults through its own
  :class:`~repro.topology.SubstrateTopology` surface, without the full
  queueing fault machinery (no failover).
* ``lossless`` — never drops (PFC pauses, CXL credits).
* ``lossy`` — finite buffers; drops recover via RTO.
* ``ecn`` — marks at a shallow egress threshold.
* ``credit`` — link-level credit flow control.
* ``srpt`` — shortest-remaining-first service order somewhere in the path.
* ``scheduled`` — admission is centrally or receiver scheduled (EDM,
  IRD, Fastpass) rather than reactive.
"""

from dataclasses import dataclass
from typing import Callable, FrozenSet, List

from repro.errors import FabricError
from repro.fabrics.base import (
    ClusterConfig,
    CompletionRecord,
    Fabric,
    FabricResult,
    OfferedMessage,
    dominant_sizes,
)
from repro.fabrics.cxl import CxlFabric
from repro.fabrics.dctcp import DctcpFabric
from repro.fabrics.edm import EdmCluster, EdmFabric
from repro.fabrics.fastpass import FastpassFabric
from repro.fabrics.ird import IrdFabric
from repro.fabrics.pfabric import PfabricFabric
from repro.fabrics.pfc import PfcFabric


@dataclass(frozen=True)
class FabricInfo:
    """One registry entry: constructor plus capability tags."""

    name: str
    factory: Callable[[ClusterConfig], Fabric]
    tags: FrozenSet[str]
    description: str

    def has(self, tag: str) -> bool:
        return tag in self.tags


#: name -> FabricInfo, in Figure 8's legend order.
FABRIC_REGISTRY = {
    info.name: info
    for info in (
        FabricInfo(
            name="EDM",
            factory=EdmFabric,
            tags=frozenset({"scheduled", "srpt", "linkfault"}),
            description="EDM: in-network priority-PIM scheduling (the paper)",
        ),
        FabricInfo(
            name="IRD",
            factory=IrdFabric,
            tags=frozenset({"scheduled", "srpt"}),
            description="idealized receiver-driven composite (Homa/pHost/NDP)",
        ),
        FabricInfo(
            name="pFabric",
            factory=PfabricFabric,
            tags=frozenset({"queueing", "faultable", "lossy", "srpt", "ecn"}),
            description="in-network SRPT over small lossy buffers",
        ),
        FabricInfo(
            name="PFC",
            factory=PfcFabric,
            tags=frozenset({"queueing", "faultable", "lossless", "ecn"}),
            description="lossless pause-frame flow control with DCQCN",
        ),
        FabricInfo(
            name="DCTCP",
            factory=DctcpFabric,
            tags=frozenset({"queueing", "faultable", "lossy", "ecn"}),
            description="ECN-driven sender rate control, finite buffers",
        ),
        FabricInfo(
            name="CXL",
            factory=CxlFabric,
            tags=frozenset({"queueing", "faultable", "lossless", "credit"}),
            description="PCIe-style link credits, no congestion control",
        ),
        FabricInfo(
            name="Fastpass",
            factory=FastpassFabric,
            tags=frozenset({"scheduled"}),
            description="centralized server-based timeslot scheduler",
        ),
    )
}

#: name -> constructor, in Figure 8's legend order (kept for callers that
#: predate the tagged registry).
FABRIC_FACTORIES = {name: info.factory for name, info in FABRIC_REGISTRY.items()}


def all_fabrics(config: ClusterConfig):
    """The seven protocols of Figure 8, in the legend's order."""
    return [info.factory(config) for info in FABRIC_REGISTRY.values()]


def fabric_names():
    """The seven protocol names, in the legend's order."""
    return list(FABRIC_REGISTRY)


def fabric_info(name: str) -> FabricInfo:
    """Look up one registry entry by its (case-insensitive) legend name."""
    for known, info in FABRIC_REGISTRY.items():
        if known.lower() == name.lower():
            return info
    raise FabricError(
        f"unknown fabric {name!r} (known: {', '.join(FABRIC_REGISTRY)})"
    )


def fabric_by_name(name: str, config: ClusterConfig) -> Fabric:
    """Instantiate one fabric by its (case-insensitive) legend name."""
    return fabric_info(name).factory(config)


def fabrics_with_tag(tag: str) -> List[str]:
    """Legend names carrying ``tag``, in the legend's order."""
    return [name for name, info in FABRIC_REGISTRY.items() if tag in info.tags]


__all__ = [
    "FABRIC_FACTORIES",
    "FABRIC_REGISTRY",
    "ClusterConfig",
    "CompletionRecord",
    "CxlFabric",
    "DctcpFabric",
    "EdmCluster",
    "EdmFabric",
    "Fabric",
    "FabricInfo",
    "FabricResult",
    "FastpassFabric",
    "IrdFabric",
    "OfferedMessage",
    "PfabricFabric",
    "PfcFabric",
    "all_fabrics",
    "dominant_sizes",
    "fabric_by_name",
    "fabric_info",
    "fabric_names",
    "fabrics_with_tag",
]
