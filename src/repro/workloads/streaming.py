"""Streaming implementations of the built-in workload families.

Each class here turns one frozen spec type into a lazy arrival stream
implementing the :class:`~repro.workloads.api.Workload` protocol:

* :class:`IncastWorkload`, :class:`ShuffleWorkload`, and
  :class:`YcsbOpsWorkload` reproduce the original list-building
  algorithms **bit-identically** seed-for-seed (the shape algorithms
  already produce arrivals in — or within a bounded window of — emission
  order, so they stream directly).  Those algorithms are kept as
  reference oracles in ``tests/test_workload_api.py``.
* :class:`SyntheticWorkload` (and :class:`TraceWorkload`, which wraps
  it) defines the canonical mixed smooth+incast stream with *per-source
  RNG substreams* merged in time order.  The legacy generator consumed
  one shared RNG source-by-source and then globally sorted, which
  fundamentally cannot stream in O(1) memory — emitting the earliest
  arrival required every draw to have happened.  Substreams make each
  source independently generatable, so a k-way heap merge emits arrivals
  with O(num_nodes) state regardless of message count.

All streams are reproducible: iterating a workload twice (or iterating
and then calling ``materialize``) yields the same sequence, and message
uids are 0-based in emission order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.fabrics.base import OfferedMessage
from repro.mac.frame import message_wire_bytes
from repro.sim.rng import make_rng
from repro.workloads.api import Workload, substream
from repro.workloads.distributions import app_cdf
from repro.workloads.shapes import IncastSpec, ShuffleSpec
from repro.workloads.synthetic import SyntheticSpec, mean_wire_bytes
from repro.workloads.traces import TraceSpec
from repro.workloads.ycsb import (
    OpType,
    YcsbOp,
    ZipfianKeyChooser,
    workload_by_name,
)

#: (src, dst, size_bytes, arrival_ns, is_read) — a message awaiting its uid.
Proto = Tuple[int, int, int, float, bool]


class SyntheticWorkload(Workload):
    """Streaming all-to-all synthetic traffic (smooth Poisson + incast).

    Each source node draws from its own RNG substream
    (``SeedSequence((seed, src))``); the incast event stream gets
    substream ``num_nodes``.  Substreams yield arrivals in nondecreasing
    time, so a lazy ``heapq.merge`` over them emits the global arrival
    order holding only one pending item per substream.  Ties are broken
    by (substream id, within-substream index), mirroring the legacy
    stable sort's source-major order.
    """


    def __init__(self, spec: SyntheticSpec) -> None:
        super().__init__(spec)

    def _smooth_stream(
        self, src: int, per_node: int, gap_ns: float
    ) -> Iterator[Tuple[float, int, int, Proto]]:
        spec = self.spec
        rng = substream(spec.seed, src)
        exponential = rng.exponential
        integers = rng.integers
        uniform = rng.random
        sample = spec.size_cdf.sample
        write_fraction = spec.write_fraction
        hi = spec.num_nodes - 1
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
        spec = self.spec
        stream_id = spec.num_nodes
        rng = substream(spec.seed, stream_id)
        degree = min(spec.incast_degree, spec.num_nodes - 1)
        t = 0.0
        seq = 0
        for _ in range(events):
            t += float(rng.exponential(event_gap_ns))
            victim = int(rng.integers(0, spec.num_nodes))
            peers = rng.choice(
                [n for n in range(spec.num_nodes) if n != victim],
                size=degree, replace=False,
            )
            event_is_read = bool(rng.random() >= spec.write_fraction)
            for peer in peers:
                size = spec.size_cdf.sample(rng)
                if event_is_read:
                    # Fan-out reads: the victim's responses converge on it.
                    yield (t, stream_id, seq, (victim, int(peer), size, t, True))
                else:
                    # Write incast: many senders hit the victim at once.
                    yield (t, stream_id, seq, (int(peer), victim, size, t, False))
                seq += 1

    def arrivals(self) -> Iterator[OfferedMessage]:
        spec = self.spec
        mean_bits = mean_wire_bytes(spec.size_cdf) * 8.0
        streams: List[Iterator[Tuple[float, int, int, Proto]]] = []

        smooth_count = round(spec.message_count * (1.0 - spec.incast_fraction))
        per_node = -(-smooth_count // spec.num_nodes)
        smooth_rate = (1.0 - spec.incast_fraction) * spec.load
        if smooth_rate > 0 and per_node > 0:
            gap_ns = mean_bits / (smooth_rate * spec.link_gbps)
            streams.extend(
                self._smooth_stream(src, per_node, gap_ns)
                for src in range(spec.num_nodes)
            )

        incast_count = spec.message_count - smooth_count
        if incast_count > 0:
            effective_degree = min(spec.incast_degree, spec.num_nodes - 1)
            events = -(-incast_count // effective_degree)
            cluster_rate_bits = (
                spec.incast_fraction * spec.load * spec.link_gbps * spec.num_nodes
            )
            event_gap_ns = spec.incast_degree * mean_bits / cluster_rate_bits
            streams.append(self._incast_stream(events, event_gap_ns))

        emitted = 0
        for t, _sid, _seq, (src, dst, size, _, is_read) in heapq.merge(*streams):
            yield OfferedMessage(
                src=src, dst=dst, size_bytes=size, arrival_ns=t,
                is_read=is_read, uid=emitted,
            )
            emitted += 1
            if emitted >= spec.message_count:
                return


class IncastWorkload(Workload):
    """Streaming pure-incast storms; bit-identical to the list-building reference.

    The legacy algorithm's event times strictly increase and its post-hoc
    sort is stable, so generation order *is* arrival order — the stream
    simply emits as it generates and stops at ``message_count``.
    """


    def __init__(self, spec: IncastSpec) -> None:
        super().__init__(spec)

    def arrivals(self) -> Iterator[OfferedMessage]:
        spec = self.spec
        rng = make_rng(spec.seed)
        degree = min(spec.degree, spec.num_nodes - 1)
        event_drain_ns = (
            degree * message_wire_bytes(spec.size_bytes) * 8.0 / spec.link_gbps
        )
        event_gap_ns = event_drain_ns / spec.load
        events = -(-spec.message_count // degree)
        uid = 0
        t = 0.0
        for event in range(events):
            t += float(rng.exponential(event_gap_ns))
            victim = event % spec.num_nodes if spec.rotate_victims else 0
            peers = rng.choice(
                [n for n in range(spec.num_nodes) if n != victim],
                size=degree, replace=False,
            )
            event_is_read = bool(rng.random() >= spec.write_fraction)
            for peer in peers:
                if event_is_read:
                    message = OfferedMessage(
                        src=victim, dst=int(peer), size_bytes=spec.size_bytes,
                        arrival_ns=t, is_read=True, uid=uid,
                    )
                else:
                    message = OfferedMessage(
                        src=int(peer), dst=victim, size_bytes=spec.size_bytes,
                        arrival_ns=t, is_read=False, uid=uid,
                    )
                yield message
                uid += 1
                if uid >= spec.message_count:
                    return


class ShuffleWorkload(Workload):
    """Streaming shuffle rounds; bit-identical to the list-building reference.

    Jitter can push a sender's transfer past the next round's start, so
    the stream keeps a small lookahead heap keyed ``(arrival, uid)`` and
    only emits entries that no future round can precede: round ``r+1``'s
    arrivals are all >= its start, and at an exact tie the buffered
    (older-uid) entry wins.  The buffer holds O(num_nodes x overlapping
    rounds) entries — O(1) in the total round count.
    """


    def __init__(self, spec: ShuffleSpec) -> None:
        super().__init__(spec)

    def arrivals(self) -> Iterator[OfferedMessage]:
        spec = self.spec
        rng = make_rng(spec.seed)
        transfer_ns = message_wire_bytes(spec.size_bytes) * 8.0 / spec.link_gbps
        round_gap_ns = transfer_ns / spec.load
        n = spec.num_nodes
        pending: List[Tuple[float, int, OfferedMessage]] = []
        uid = 0
        for r in range(spec.rounds):
            start = (r + 1) * round_gap_ns
            stride = (r % (n - 1)) + 1
            for src in range(n):
                dst = (src + stride) % n
                jitter = (
                    float(rng.uniform(0.0, spec.jitter_ns)) if spec.jitter_ns else 0.0
                )
                is_read = bool(rng.random() >= spec.write_fraction)
                message = OfferedMessage(
                    src=src, dst=dst, size_bytes=spec.size_bytes,
                    arrival_ns=start + jitter, is_read=is_read, uid=uid,
                )
                heapq.heappush(pending, (message.arrival_ns, uid, message))
                uid += 1
            next_start = (r + 2) * round_gap_ns
            while pending and (
                r == spec.rounds - 1 or pending[0][0] <= next_start
            ):
                yield heapq.heappop(pending)[2]


@dataclass(frozen=True)
class YcsbSpec:
    """Parameters of a YCSB operation stream (the spec form of a YCSB mix).

    ``workload`` is the mix name ("A", "B", or "F"); keyspace/theta are
    YCSB's Zipfian-popularity knobs.  ``message_count`` is the op count,
    named to match the other specs' bounded-stream convention.
    """

    workload: str
    message_count: int
    keyspace: int = 10_000
    theta: float = 0.99
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        workload_by_name(self.workload)  # validates the mix name
        if self.message_count <= 0:
            raise WorkloadError(f"count must be positive: {self.message_count}")


class YcsbOpsWorkload(Workload):
    """Streaming YCSB operations; bit-identical to the list-building reference.

    The legacy generator is a single sequential RNG walk with no sort,
    so the stream replays the exact same draws one op at a time.
    """


    def __init__(self, spec: YcsbSpec) -> None:
        super().__init__(spec)

    def arrivals(self) -> Iterator[YcsbOp]:
        spec = self.spec
        mix = workload_by_name(spec.workload)
        rng = make_rng(spec.seed)
        chooser = ZipfianKeyChooser(
            spec.keyspace, spec.theta, seed=int(rng.integers(0, 2**31))
        )
        for _ in range(spec.message_count):
            u = rng.random()
            if u < mix.read_fraction:
                op = OpType.READ
            elif u < mix.read_fraction + mix.update_fraction:
                op = OpType.UPDATE
            else:
                op = OpType.READ_MODIFY_WRITE
            yield YcsbOp(op=op, key=chooser.next_key())


class TraceWorkload(Workload):
    """Streaming application trace: synthetic traffic under an app CDF."""


    def __init__(self, spec: TraceSpec) -> None:
        super().__init__(spec)
        self._synthetic = SyntheticWorkload(
            SyntheticSpec(
                num_nodes=spec.num_nodes,
                link_gbps=spec.link_gbps,
                load=spec.load,
                message_count=spec.message_count,
                size_cdf=app_cdf(spec.app),
                write_fraction=0.5,  # §4.3.2: reads and writes in equal proportion
                seed=spec.seed,
            )
        )

    def arrivals(self) -> Iterator[OfferedMessage]:
        return self._synthetic.arrivals()


#: The workload class behind each spec type (``workload_from_spec``).
WORKLOAD_FOR_SPEC = {
    SyntheticSpec: SyntheticWorkload,
    IncastSpec: IncastWorkload,
    ShuffleSpec: ShuffleWorkload,
    TraceSpec: TraceWorkload,
    YcsbSpec: YcsbOpsWorkload,
}


__all__ = [
    "IncastWorkload",
    "ShuffleWorkload",
    "SyntheticWorkload",
    "TraceWorkload",
    "YcsbOpsWorkload",
    "YcsbSpec",
]
