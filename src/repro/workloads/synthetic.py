"""Synthetic all-to-all workload spec (§4.3.1's microbenchmark).

Generates Poisson arrivals of remote reads and writes between uniformly
random node pairs at a target per-node *offered load* — the fraction of
each node's link bandwidth consumed by memory-message payloads.  The §4.3
microbenchmark uses 64 B reads/writes (8 B RREQ) at loads 0.2–0.9, plus
mixed write:read ratios at load 0.8.

This module owns the spec and sizing math; the arrival stream itself is
:class:`repro.workloads.streaming.SyntheticWorkload`, reached through
``workload_from_spec(spec)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import WorkloadError
from repro.fabrics.base import OfferedMessage
from repro.workloads.distributions import SizeCdf, fixed_size


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of an all-to-all synthetic workload.

    ``incast_fraction`` of the offered messages arrive as *incast events*:
    ``incast_degree`` distinct sources each send one message to a common
    destination at the same instant.  Incast is the traffic pattern §2.4
    (limitation 6) and §4.3.1 identify as the stressor for reactive and
    credit-based fabrics; disaggregated workloads produce it whenever a
    compute node fans out requests and responses return together.
    """

    num_nodes: int
    link_gbps: float
    load: float
    message_count: int
    size_cdf: SizeCdf
    write_fraction: float = 0.5
    seed: Optional[int] = 0
    incast_fraction: float = 0.25
    incast_degree: int = 8

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise WorkloadError(f"need >= 2 nodes: {self.num_nodes}")
        if not 0 < self.load <= 1:
            raise WorkloadError(f"load must be in (0,1]: {self.load}")
        if self.message_count <= 0:
            raise WorkloadError(f"need a positive message count: {self.message_count}")
        if not 0 <= self.write_fraction <= 1:
            raise WorkloadError(f"write fraction in [0,1]: {self.write_fraction}")
        if not 0 <= self.incast_fraction < 1:
            raise WorkloadError(f"incast fraction in [0,1): {self.incast_fraction}")
        if self.incast_degree < 2:
            raise WorkloadError(f"incast degree must be >= 2: {self.incast_degree}")


def mean_wire_bytes(cdf: SizeCdf) -> float:
    """Expected MAC wire footprint (preamble + frame + IFG) under the CDF.

    Offered load is defined in conventional MAC-frame wire terms so the
    same message *rate* is offered to every fabric; protocols with leaner
    framing (EDM's 66-bit blocks) then enjoy headroom at equal load, which
    is exactly the paper's bandwidth-efficiency argument (Figure 6).
    """
    from repro.mac.frame import message_wire_bytes

    mean = 0.0
    prev = 0.0
    for size, prob in cdf.points:
        mean += message_wire_bytes(size) * (prob - prev)
        prev = prob
    return mean


def microbenchmark(
    num_nodes: int,
    link_gbps: float,
    load: float,
    message_count: int,
    write_fraction: float = 0.5,
    message_bytes: int = 64,
    seed: Optional[int] = 0,
) -> List[OfferedMessage]:
    """The §4.3.1 workload: fixed 64 B reads/writes at a given load."""
    from repro.workloads.api import workload_from_spec

    spec = SyntheticSpec(
        num_nodes=num_nodes,
        link_gbps=link_gbps,
        load=load,
        message_count=message_count,
        size_cdf=fixed_size(message_bytes),
        write_fraction=write_fraction,
        seed=seed,
    )
    return workload_from_spec(spec).materialize()
