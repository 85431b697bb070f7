"""Demand notification queues (§3.1.1–§3.1.2).

The switch stores one *demand* per pending memory message.  Logically there
is a single global notification queue, but to sustain up to N insertions
per cycle and to let PIM read all destinations in parallel, EDM maintains
N per-destination-port queues.  Each queue is a hardware ordered list
bounded to ``X * N`` entries, where X is the maximum number of active
notifications allowed per source-destination pair (senders rate-limit to
enforce this; X=3 empirically best, §4.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.scheduler.ordered_list import OrderedList
from repro.core.scheduler.policies import Policy
from repro.errors import SchedulerError

#: Paper's empirically best bound on active notifications per src-dst pair.
DEFAULT_MAX_ACTIVE_PER_PAIR = 3


class Demand:
    """One pending message demand held by the switch.

    Attributes:
        src: sending port (for an RRES demand this is the *memory* node).
        dst: receiving port.
        message_id: 8-bit per-pair id.
        total_bytes: message size from the notification.
        remaining_bytes: bytes not yet granted.
        notified_at: arrival time of the (implicit or explicit) notification.
        message_uid: uid of the underlying MemoryMessage, if any.
        carried_request: for RRES demands, the buffered RREQ/RMWREQ whose
            forwarding acts as the first grant (§3.1.1 step 4).
        pair: precomputed rate-limit key ``(src, dst, is-response)``.  A
            host rate-limits its *own* initiated messages to X per
            destination; read-response demands (src = the memory node) are
            limited by the requesting host, so the two directions account
            separately even when they share a port pair.
    """

    __slots__ = (
        "src", "dst", "message_id", "total_bytes", "remaining_bytes",
        "notified_at", "message_uid", "carried_request", "pair",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        message_id: int,
        total_bytes: int,
        remaining_bytes: int = -1,
        notified_at: float = 0.0,
        message_uid: Optional[int] = None,
        carried_request: Optional[object] = None,
    ) -> None:
        if total_bytes <= 0:
            raise SchedulerError(f"demand must be positive, got {total_bytes}")
        self.src = src
        self.dst = dst
        self.message_id = message_id
        self.total_bytes = total_bytes
        self.remaining_bytes = total_bytes if remaining_bytes < 0 else remaining_bytes
        self.notified_at = notified_at
        self.message_uid = message_uid
        self.carried_request = carried_request
        self.pair = (src, dst, carried_request is not None)

    def clone(self) -> "Demand":
        """Independent copy (used when mirroring a demand stream to a
        backup scheduler, which must own its remaining-bytes state)."""
        return Demand(
            src=self.src,
            dst=self.dst,
            message_id=self.message_id,
            total_bytes=self.total_bytes,
            remaining_bytes=self.remaining_bytes,
            notified_at=self.notified_at,
            message_uid=self.message_uid,
            carried_request=self.carried_request,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Demand(src={self.src}, dst={self.dst}, id={self.message_id}, "
            f"total={self.total_bytes}, remaining={self.remaining_bytes})"
        )


class NotificationQueueBank:
    """The N per-destination notification queues plus pair-count bookkeeping.

    Args:
        num_ports: N, switch port count.
        policy: priority policy used to order demands.
        max_active_per_pair: X, bound enforced per src-dst pair.
    """

    def __init__(
        self,
        num_ports: int,
        policy: Policy = Policy.SRPT,
        max_active_per_pair: int = DEFAULT_MAX_ACTIVE_PER_PAIR,
    ) -> None:
        if num_ports < 2:
            raise SchedulerError(f"need at least 2 ports, got {num_ports}")
        if max_active_per_pair <= 0:
            raise SchedulerError(f"X must be positive, got {max_active_per_pair}")
        self.num_ports = num_ports
        self.policy = policy
        self.max_active_per_pair = max_active_per_pair
        # Priority extraction bound once: SRPT keys on remaining bytes,
        # FCFS on notification time (identical to priority_of per call).
        if policy is Policy.SRPT:
            self._priority_of = _srpt_priority
        else:
            self._priority_of = _fcfs_priority
        # Each destination queue holds up to X demands per source for each
        # of the two directions (initiated writes + read responses).
        capacity = 2 * max_active_per_pair * num_ports
        self._queues: List[OrderedList[Demand]] = [
            OrderedList(capacity=capacity) for _ in range(num_ports)
        ]
        self._pair_counts: Dict[Tuple[int, int, bool], int] = {}
        # Per-source index ``dst -> pending demand count``: when a source
        # port frees up, the grant engine marks exactly these destinations
        # as matching candidates instead of rescanning every queue.
        self._by_src: List[Dict[int, int]] = [{} for _ in range(num_ports)]
        # Cached totals: the matcher polls these every round, and summing
        # N per-port queues per poll is O(N^2) per simulated chunk-time.
        self._total = 0
        self._nonempty: set = set()

    def __len__(self) -> int:
        return self._total

    def nonempty_destinations(self) -> List[int]:
        """Destination ports with pending demands, in ascending order."""
        return sorted(self._nonempty)

    def destinations_from(self, src: int) -> Dict[int, int]:
        """Destinations holding a pending demand from ``src`` (live view:
        ``dst -> count``; callers must not mutate it)."""
        return self._by_src[src]

    def queue_for(self, dst: int) -> OrderedList[Demand]:
        self._check_port(dst)
        return self._queues[dst]

    def pair_count(self, src: int, dst: int, is_response: bool = False) -> int:
        return self._pair_counts.get((src, dst, is_response), 0)

    def can_accept(self, src: int, dst: int, is_response: bool = False) -> bool:
        """Whether a new notification for the pair respects the X bound."""
        return self.pair_count(src, dst, is_response) < self.max_active_per_pair

    def add(self, demand: Demand) -> None:
        """Insert a demand into its destination's queue."""
        self._check_port(demand.src)
        self._check_port(demand.dst)
        pair = demand.pair
        count = self._pair_counts.get(pair, 0)
        if count >= self.max_active_per_pair:
            raise SchedulerError(
                f"pair {pair} exceeded X={self.max_active_per_pair} active "
                f"notifications; the sender's rate limiter must hold this demand"
            )
        dst = demand.dst
        self._queues[dst].insert(self._priority_of(demand), demand)
        self._pair_counts[pair] = count + 1
        self._total += 1
        self._nonempty.add(dst)
        dsts = self._by_src[demand.src]
        dsts[dst] = dsts.get(dst, 0) + 1

    def remove(self, demand: Demand) -> None:
        """Remove a fully-granted demand (remaining bytes hit zero)."""
        dst = demand.dst
        queue = self._queues[dst]
        queue.remove(demand)
        self._total -= 1
        if not queue:
            self._nonempty.discard(dst)
        dsts = self._by_src[demand.src]
        left = dsts[dst] - 1
        if left:
            dsts[dst] = left
        else:
            del dsts[dst]
        pair = demand.pair
        count = self._pair_counts.get(pair, 0)
        if count <= 1:
            self._pair_counts.pop(pair, None)
        else:
            self._pair_counts[pair] = count - 1

    def reprioritize(self, demand: Demand) -> None:
        """Re-key a demand after its remaining bytes changed (SRPT)."""
        self._queues[demand.dst].reprioritize(demand, self._priority_of(demand))

    def best_eligible(self, dst: int, src_eligible) -> Optional[Demand]:
        """Highest-priority demand at ``dst`` whose source passes the filter.

        ``src_eligible`` is a predicate over source port ids (the not_busy
        check of PIM's first cycle).
        """
        queue = self.queue_for(dst)
        if not queue:
            return None
        return queue.find_best(lambda d: src_eligible(d.src))

    def best_priority(self, dst: int) -> Optional[float]:
        """Priority of the head of ``dst``'s queue, or None when empty."""
        queue = self.queue_for(dst)
        if not queue:
            return None
        return queue.peek_priority()

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.num_ports:
            raise SchedulerError(
                f"port {port} out of range for a {self.num_ports}-port switch"
            )


def _srpt_priority(demand: Demand) -> float:
    return float(demand.remaining_bytes)


def _fcfs_priority(demand: Demand) -> float:
    return demand.notified_at
