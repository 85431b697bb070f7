"""Structured workload shapes: incast storms and all-to-all shuffles.

The synthetic generator (:mod:`repro.workloads.synthetic`) mixes a smooth
Poisson background with occasional incast events.  The scenario engine
also needs the two *pure* shapes disaggregated applications are known
for:

* **Incast** — repeated synchronized fan-in: ``degree`` sources hit one
  victim at the same instant, event after event.  This is the §2.4
  stressor for reactive and credit-based fabrics in its undiluted form.
* **All-to-all shuffle** — the map-reduce/parameter-server exchange:
  round ``r`` has every node ``i`` send one transfer to node
  ``(i + r) mod n``, so each round is a perfect permutation and every
  link carries exactly one flow — until a fault breaks the symmetry.

Each spec is its own streaming workload, with explicit 0-based uids in
arrival order, matching the synthetic stream's determinism contract.  Both
streams are bit-identical seed for seed to the original list-building
algorithms, kept as reference oracles in ``tests/test_workload_api.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.fabrics.base import OfferedMessage
from repro.mac.frame import message_wire_bytes
from repro.sim.rng import make_rng
from repro.workloads.api import Workload


@dataclass(frozen=True)
class IncastSpec(Workload):
    """A pure-incast workload.

    Incast events arrive as a Poisson process whose mean gap is sized so
    the victim's downlink sees ``load`` of its bandwidth *on average*:
    one event delivers ``degree`` messages that serialize back-to-back,
    so the gap is their combined drain time divided by the load.  With
    ``rotate_victims`` the victim walks round-robin over the nodes
    (spreading the pain); otherwise node 0 absorbs every event.

    Event times strictly increase, so generation order *is* arrival
    order: the stream emits as it generates and stops at
    ``message_count``.
    """

    num_nodes: int
    link_gbps: float
    load: float
    message_count: int
    size_bytes: int = 64
    degree: int = 8
    write_fraction: float = 1.0
    seed: Optional[int] = 0
    rotate_victims: bool = True

    def __post_init__(self) -> None:
        if self.num_nodes < 3:
            raise WorkloadError(f"incast needs >= 3 nodes: {self.num_nodes}")
        if not 0 < self.load <= 1:
            raise WorkloadError(f"load must be in (0,1]: {self.load}")
        if self.message_count <= 0:
            raise WorkloadError(f"need a positive message count: {self.message_count}")
        if self.size_bytes <= 0:
            raise WorkloadError(f"size must be positive: {self.size_bytes}")
        if self.degree < 2:
            raise WorkloadError(f"incast degree must be >= 2: {self.degree}")
        if not 0 <= self.write_fraction <= 1:
            raise WorkloadError(f"write fraction in [0,1]: {self.write_fraction}")

    def arrivals(self) -> Iterator[OfferedMessage]:
        rng = make_rng(self.seed)
        degree = min(self.degree, self.num_nodes - 1)
        event_drain_ns = (
            degree * message_wire_bytes(self.size_bytes) * 8.0 / self.link_gbps
        )
        event_gap_ns = event_drain_ns / self.load
        events = -(-self.message_count // degree)
        uid = 0
        t = 0.0
        for event in range(events):
            t += float(rng.exponential(event_gap_ns))
            victim = event % self.num_nodes if self.rotate_victims else 0
            peers = rng.choice(
                [n for n in range(self.num_nodes) if n != victim],
                size=degree, replace=False,
            )
            event_is_read = bool(rng.random() >= self.write_fraction)
            for peer in peers:
                if event_is_read:
                    message = OfferedMessage(
                        src=victim, dst=int(peer), size_bytes=self.size_bytes,
                        arrival_ns=t, is_read=True, uid=uid,
                    )
                else:
                    message = OfferedMessage(
                        src=int(peer), dst=victim, size_bytes=self.size_bytes,
                        arrival_ns=t, is_read=False, uid=uid,
                    )
                yield message
                uid += 1
                if uid >= self.message_count:
                    return


@dataclass(frozen=True)
class ShuffleSpec(Workload):
    """An all-to-all shuffle workload.

    ``rounds`` permutation rounds; round ``r`` (1-based) has node ``i``
    send to ``(i + r) mod n`` (skipping self, so the stride cycles over
    ``1..n-1``).  Rounds are spaced so each node offers ``load`` of its
    uplink: the gap is one transfer's serialization time over the load.
    ``jitter_ns`` adds a small uniform start skew per sender, modelling
    compute-phase imbalance; 0 keeps rounds perfectly synchronized.

    Jitter can push a sender's transfer past the next round's start, so
    the stream keeps a small lookahead heap keyed ``(arrival, uid)`` and
    only emits entries that no future round can precede: round ``r+1``'s
    arrivals are all >= its start, and at an exact tie the buffered
    (older-uid) entry wins.  The buffer holds O(num_nodes x overlapping
    rounds) entries — O(1) in the total round count.
    """

    num_nodes: int
    link_gbps: float
    load: float
    rounds: int
    size_bytes: int = 4096
    write_fraction: float = 1.0
    seed: Optional[int] = 0
    jitter_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise WorkloadError(f"shuffle needs >= 2 nodes: {self.num_nodes}")
        if not 0 < self.load <= 1:
            raise WorkloadError(f"load must be in (0,1]: {self.load}")
        if self.rounds <= 0:
            raise WorkloadError(f"need a positive round count: {self.rounds}")
        if self.size_bytes <= 0:
            raise WorkloadError(f"size must be positive: {self.size_bytes}")
        if not 0 <= self.write_fraction <= 1:
            raise WorkloadError(f"write fraction in [0,1]: {self.write_fraction}")
        if self.jitter_ns < 0:
            raise WorkloadError(f"jitter must be >= 0: {self.jitter_ns}")

    @property
    def message_count(self) -> int:
        return self.rounds * self.num_nodes

    def arrivals(self) -> Iterator[OfferedMessage]:
        rng = make_rng(self.seed)
        transfer_ns = message_wire_bytes(self.size_bytes) * 8.0 / self.link_gbps
        round_gap_ns = transfer_ns / self.load
        n = self.num_nodes
        pending: List[Tuple[float, int, OfferedMessage]] = []
        uid = 0
        for r in range(self.rounds):
            start = (r + 1) * round_gap_ns
            stride = (r % (n - 1)) + 1
            for src in range(n):
                dst = (src + stride) % n
                jitter = (
                    float(rng.uniform(0.0, self.jitter_ns)) if self.jitter_ns else 0.0
                )
                is_read = bool(rng.random() >= self.write_fraction)
                message = OfferedMessage(
                    src=src, dst=dst, size_bytes=self.size_bytes,
                    arrival_ns=start + jitter, is_read=is_read, uid=uid,
                )
                heapq.heappush(pending, (message.arrival_ns, uid, message))
                uid += 1
            next_start = (r + 2) * round_gap_ns
            while pending and (
                r == self.rounds - 1 or pending[0][0] <= next_start
            ):
                yield heapq.heappop(pending)[2]
