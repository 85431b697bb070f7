"""The grant engine: chunking, port busy windows, and timed release (§3.1.1).

This is the event-level face of the scheduler.  It owns the notification
queue bank and a PIM matcher and turns matches into chunk :class:`Grant`
objects, maintaining:

* **remaining-bytes state** per demand, decremented by each grant;
* **busy windows** per source and destination port.  Per step (7) of the
  grant algorithm, a port pair granted ``l`` bytes at time ``t`` is released
  at ``t + l/B`` (not when the data is fully received) so the grant for the
  next chunk can be issued just in time to keep the link busy;
* **implicit first grants** for RRES demands: the buffered RREQ/RMWREQ is
  forwarded to the memory node as the first grant (§3.1.1 step 4).

Rounds are incremental: busy ports are tracked live and a round offers
the matcher only the destinations whose state changed since the last
(maximal) matching — see :class:`CentralScheduler` for the invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from repro.core.clock import (
    SCHEDULER_CLOCK_GHZ,
    matching_latency_ns,
)
from repro.core.messages import Grant
from repro.phy.encoder import block_count_for_message
from repro.core.scheduler.notification_queue import (
    Demand,
    NotificationQueueBank,
)
from repro.core.scheduler.pim import PimMatcher
from repro.core.scheduler.policies import Policy
from repro.errors import SchedulerError

#: Chunk size used in the paper's large-scale simulations (§4.3).
DEFAULT_CHUNK_BYTES = 256


class IssuedGrant:
    """A grant paired with its demand and bookkeeping for the fabric model."""

    __slots__ = ("grant", "demand", "is_first_for_rres", "completes_message")

    def __init__(
        self,
        grant: Grant,
        demand: Demand,
        is_first_for_rres: bool = False,
        completes_message: bool = False,
    ) -> None:
        self.grant = grant
        self.demand = demand
        self.is_first_for_rres = is_first_for_rres
        self.completes_message = completes_message


@dataclass
class SchedulerConfig:
    """Tunable parameters of the central scheduler."""

    num_ports: int
    link_gbps: float
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    policy: Policy = Policy.SRPT
    max_active_per_pair: int = 3
    clock_ghz: float = SCHEDULER_CLOCK_GHZ
    max_iterations: Optional[int] = None
    early_release: bool = True

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0:
            raise SchedulerError(f"chunk size must be positive: {self.chunk_bytes}")
        if self.link_gbps <= 0:
            raise SchedulerError(f"link rate must be positive: {self.link_gbps}")

    @property
    def matching_latency_ns(self) -> float:
        """Average time to form one maximal matching (§3.1.3)."""
        return matching_latency_ns(self.num_ports, self.clock_ghz)


class CentralScheduler:
    """EDM's centralized in-network memory-traffic scheduler.

    Time-driven API: the owner (switch model) calls :meth:`notify` when
    demands arrive and :meth:`schedule` to run a matching round at a given
    simulation time; grants are returned for the owner to deliver.  Time
    only moves forward: a round (or :meth:`next_release_after`) at a time
    before the latest one raises :class:`~repro.errors.SchedulerError`.

    Busy state is incremental.  Live ``busy_src``/``busy_dst`` sets hold
    the ports inside a busy window, and a min-heap of
    ``(release_at, src, dst)`` holds the pending releases.  One expiry
    step pops the releases due by ``now`` and frees a port only if its
    busy-until entry still equals the popped time.

    **Dirty-destination rule.**  Without an iteration cap every round ends
    in a maximal matching (see :mod:`repro.core.scheduler.pim`), so the
    next round can only match at a destination whose state changed since.
    Those *dirty* destinations are: the destination of a new demand, a
    freed destination, and every destination holding a demand from a
    freed source.  Demands leave a queue only when granted and priorities
    only change at matched (hence busy) destinations, so nothing else can
    create an eligible demand.  Each round passes only the dirty non-empty
    destinations to the matcher.  With an iteration cap a round may stop
    short of maximal, so every non-empty destination stays a candidate.
    """

    def __init__(self, config: SchedulerConfig) -> None:
        self.config = config
        self.bank = NotificationQueueBank(
            num_ports=config.num_ports,
            policy=config.policy,
            max_active_per_pair=config.max_active_per_pair,
        )
        self.matcher = PimMatcher(self.bank, max_iterations=config.max_iterations)
        self._src_busy_until: Dict[int, float] = {}
        self._dst_busy_until: Dict[int, float] = {}
        self._busy_src: Set[int] = set()
        self._busy_dst: Set[int] = set()
        self._releases: List[Tuple[float, int, int]] = []
        self._dirty: Set[int] = set()
        self._latest = float("-inf")
        self._first_granted: Set[int] = set()
        self.grants_issued = 0
        self.rounds_run = 0
        self.total_iterations = 0
        # Chunk sizes repeat (full chunks plus a handful of tails), so the
        # per-grant hold window is cached per chunk size.  Entries are the
        # result of the exact per-grant expression, so the cache cannot
        # perturb event times.
        self._hold_ns_cache: Dict[int, float] = {}

    # ------------------------------------------------------------------ #
    # Demand intake                                                      #
    # ------------------------------------------------------------------ #

    def notify(self, demand: Demand) -> None:
        """Register a demand (explicit /N/ or implicit via RREQ/RMWREQ)."""
        self.bank.add(demand)
        self._dirty.add(demand.dst)

    @property
    def pending_demands(self) -> int:
        return len(self.bank)

    # ------------------------------------------------------------------ #
    # Busy-window state                                                  #
    # ------------------------------------------------------------------ #

    def src_free_at(self, src: int) -> float:
        return self._src_busy_until.get(src, 0.0)

    def dst_free_at(self, dst: int) -> float:
        return self._dst_busy_until.get(dst, 0.0)

    def _expire(self, now: float) -> None:
        """Free every port whose busy window ended by ``now``."""
        if now < self._latest:
            raise SchedulerError(
                f"scheduler time moved backwards: {now} < {self._latest}"
            )
        self._latest = now
        releases = self._releases
        while releases and releases[0][0] <= now:
            release_at, src, dst = heappop(releases)
            if self._src_busy_until.get(src) == release_at:
                del self._src_busy_until[src]
                self._busy_src.discard(src)
                self._dirty.update(self.bank.destinations_from(src))
            if self._dst_busy_until.get(dst) == release_at:
                del self._dst_busy_until[dst]
                self._busy_dst.discard(dst)
                self._dirty.add(dst)

    def next_release_after(self, now: float) -> Optional[float]:
        """Earliest future time a busy port frees up (for re-scheduling)."""
        self._expire(now)
        return self.next_release()

    def next_release(self) -> Optional[float]:
        """Earliest pending release, as of the last round or expiry.

        Right after :meth:`schedule` this equals ``next_release_after`` at
        the round's time: the round expired everything due by then.
        """
        releases = self._releases
        return releases[0][0] if releases else None

    # ------------------------------------------------------------------ #
    # Matching + grant issue                                             #
    # ------------------------------------------------------------------ #

    def schedule(self, now: float) -> List[IssuedGrant]:
        """Run one matching round at time ``now`` and issue chunk grants.

        One pass: expire due releases, match once, then issue each match's
        chunk grant inline (remaining bytes, SRPT re-key, busy windows,
        first-grant bookkeeping) in match order.
        """
        self._expire(now)
        bank = self.bank
        dirty = self._dirty
        if not bank._total:
            dirty.clear()
            return []
        if self.matcher.max_iterations is None:
            candidates: Optional[List[int]] = sorted(dirty.intersection(bank._nonempty))
        else:
            candidates = None
        dirty.clear()
        result = self.matcher.run(self._busy_src, self._busy_dst, candidates)
        self.rounds_run += 1
        self.total_iterations += result.iterations

        chunk_bytes = self.config.chunk_bytes
        hold_cache = self._hold_ns_cache
        src_busy_until = self._src_busy_until
        dst_busy_until = self._dst_busy_until
        releases = self._releases
        first_granted = self._first_granted
        queues = bank._queues
        rekey = bank._priority_of
        issued: List[IssuedGrant] = []
        for demand in result.matches:
            remaining = demand.remaining_bytes
            chunk = chunk_bytes if chunk_bytes < remaining else remaining
            if chunk <= 0:  # pragma: no cover - defensive
                raise SchedulerError(f"demand {demand} has no remaining bytes")
            remaining = demand.remaining_bytes = remaining - chunk
            completes = remaining == 0
            if completes:
                bank.remove(demand)
            else:
                # Re-key (SRPT's remaining bytes changed): one remove +
                # insert on the queue, behind the new priority's ties.
                queues[demand.dst].reprioritize(demand, rekey(demand))

            # Step (7): release the pair l/B after grant issue so the next
            # grant arrives just in time.  B here is payload throughput:
            # the chunk's wire footprint includes /M*/ block framing (64
            # data bits per 66-bit block), so reserve its true wire time.
            # With early release disabled (ablation), hold the pair for a
            # full round trip instead.
            hold_ns = hold_cache.get(chunk)
            if hold_ns is None:
                wire_bytes = block_count_for_message(chunk) * 8
                hold_ns = wire_bytes * 8.0 / self.config.link_gbps
                if not self.config.early_release:
                    hold_ns *= 2.0
                hold_cache[chunk] = hold_ns
            release_at = now + hold_ns
            src = demand.src
            dst = demand.dst
            src_busy_until[src] = release_at
            dst_busy_until[dst] = release_at
            heappush(releases, (release_at, src, dst))

            first = False
            uid = demand.message_uid
            for_response = demand.carried_request is not None
            if for_response and uid is not None:
                if uid not in first_granted:
                    first_granted.add(uid)
                    first = True
            if completes and uid is not None:
                first_granted.discard(uid)

            grant = Grant(
                src, dst, demand.message_id, chunk, now, uid, for_response,
            )
            issued.append(IssuedGrant(grant, demand, first, completes))
        self.grants_issued += len(issued)
        return issued

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    @property
    def average_iterations(self) -> float:
        if self.rounds_run == 0:
            return 0.0
        return self.total_iterations / self.rounds_run
