"""Synthetic all-to-all workload spec (§4.3.1's microbenchmark).

Generates Poisson arrivals of remote reads and writes between uniformly
random node pairs at a target per-node *offered load* — the fraction of
each node's link bandwidth consumed by memory-message payloads.  The §4.3
microbenchmark uses 64 B reads/writes (8 B RREQ) at loads 0.2–0.9, plus
mixed write:read ratios at load 0.8.

The spec is its own streaming workload: each source node draws from its
own RNG substream, and the sources merge lazily in time order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.fabrics.base import OfferedMessage
from repro.workloads.api import Workload, substream
from repro.workloads.distributions import SizeCdf, fixed_size

#: (src, dst, size_bytes, arrival_ns, is_read) — a message awaiting its uid.
Proto = Tuple[int, int, int, float, bool]


@dataclass(frozen=True)
class SyntheticSpec(Workload):
    """An all-to-all synthetic workload (smooth Poisson + incast).

    ``incast_fraction`` of the offered messages arrive as *incast events*:
    ``incast_degree`` distinct sources each send one message to a common
    destination at the same instant.  Incast is the traffic pattern §2.4
    (limitation 6) and §4.3.1 identify as the stressor for reactive and
    credit-based fabrics; disaggregated workloads produce it whenever a
    compute node fans out requests and responses return together.

    Each source node draws from its own RNG substream
    (``SeedSequence((seed, src))``); the incast event stream gets
    substream ``num_nodes``.  Substreams yield arrivals in nondecreasing
    time, so a lazy ``heapq.merge`` over them emits the global arrival
    order holding only one pending item per substream, O(num_nodes)
    state regardless of message count.  Ties are broken by (substream
    id, within-substream index): source-major order.  Message uids are
    0-based in emission order.
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
        if not 0 < self.link_gbps < math.inf:
            raise WorkloadError(
                f"link rate must be finite and positive: {self.link_gbps}"
            )
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

    def _smooth_stream(
        self, src: int, per_node: int, gap_ns: float
    ) -> Iterator[Tuple[float, int, int, Proto]]:
        rng = substream(self.seed, src)
        exponential = rng.exponential
        integers = rng.integers
        uniform = rng.random
        sample = self.size_cdf.sample
        write_fraction = self.write_fraction
        hi = self.num_nodes - 1
        t = 0.0
        for seq in range(per_node):
            t += float(exponential(gap_ns))
            dst = int(integers(0, hi))
            if dst >= src:
                dst += 1
            size = sample(rng)
            is_read = bool(uniform() >= write_fraction)
            yield (t, src, seq, (src, dst, size, t, is_read))

    def _incast_stream(
        self, events: int, event_gap_ns: float
    ) -> Iterator[Tuple[float, int, int, Proto]]:
        stream_id = self.num_nodes
        rng = substream(self.seed, stream_id)
        degree = min(self.incast_degree, self.num_nodes - 1)
        t = 0.0
        seq = 0
        for _ in range(events):
            t += float(rng.exponential(event_gap_ns))
            victim = int(rng.integers(0, self.num_nodes))
            peers = rng.choice(
                [n for n in range(self.num_nodes) if n != victim],
                size=degree, replace=False,
            )
            event_is_read = bool(rng.random() >= self.write_fraction)
            for peer in peers:
                size = self.size_cdf.sample(rng)
                if event_is_read:
                    # Fan-out reads: the victim's responses converge on it.
                    yield (t, stream_id, seq, (victim, int(peer), size, t, True))
                else:
                    # Write incast: many senders hit the victim at once.
                    yield (t, stream_id, seq, (int(peer), victim, size, t, False))
                seq += 1

    def arrivals(self) -> Iterator[OfferedMessage]:
        mean_bits = mean_wire_bytes(self.size_cdf) * 8.0
        streams: List[Iterator[Tuple[float, int, int, Proto]]] = []

        smooth_count = round(self.message_count * (1.0 - self.incast_fraction))
        per_node = -(-smooth_count // self.num_nodes)
        smooth_rate = (1.0 - self.incast_fraction) * self.load
        if smooth_rate > 0 and per_node > 0:
            gap_ns = mean_bits / (smooth_rate * self.link_gbps)
            streams.extend(
                self._smooth_stream(src, per_node, gap_ns)
                for src in range(self.num_nodes)
            )

        incast_count = self.message_count - smooth_count
        if incast_count > 0:
            effective_degree = min(self.incast_degree, self.num_nodes - 1)
            events = -(-incast_count // effective_degree)
            cluster_rate_bits = (
                self.incast_fraction * self.load * self.link_gbps * self.num_nodes
            )
            event_gap_ns = self.incast_degree * mean_bits / cluster_rate_bits
            streams.append(self._incast_stream(events, event_gap_ns))

        emitted = 0
        for t, _sid, _seq, (src, dst, size, _, is_read) in heapq.merge(*streams):
            yield OfferedMessage(
                src=src, dst=dst, size_bytes=size, arrival_ns=t,
                is_read=is_read, uid=emitted,
            )
            emitted += 1
            if emitted >= self.message_count:
                return


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
    return SyntheticSpec(
        num_nodes=num_nodes,
        link_gbps=link_gbps,
        load=load,
        message_count=message_count,
        size_cdf=fixed_size(message_bytes),
        write_fraction=write_fraction,
        seed=seed,
    ).materialize()
