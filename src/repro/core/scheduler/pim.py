"""Priority-based Parallel Iterative Matching (§3.1.2).

Each PIM iteration runs in exactly 3 scheduler clock cycles:

* **Cycle 1** — every destination port d, in parallel, picks the highest
  priority *eligible* demand ``m: s -> d`` from its notification queue
  (both s and d must be not_busy) and issues a matching request to s.
* **Cycle 2** — every source port s with multiple requests resolves the
  winner via its sorted request array + priority encoder, in 1 cycle.
* **Cycle 3** — matched (s, d) pairs are marked busy.

Iterations repeat until no new matches form; PIM converges to a maximal
matching in ~log2(N) iterations on average.  The matcher works over the
:class:`NotificationQueueBank` and a caller-supplied port-busy view, so the
grant engine can layer chunking and timed port release on top.

**Maximality invariant.**  Without an iteration cap a round only stops
when no free destination holds a demand from a free source, so it always
ends in a maximal matching.  Until some destination's state changes, the
next round can match nothing new there.  The grant engine therefore passes
:meth:`PimMatcher.run` only its *dirty* destinations as candidates, and
the matches, their order and the iteration count are the same as a scan
over every non-empty queue.  The grant engine's docstring states the rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.scheduler.notification_queue import Demand, NotificationQueueBank
from repro.core.scheduler.ordered_list import CycleMeter
from repro.errors import SchedulerError

#: Clock cycles per PIM iteration in EDM's hardware pipeline (§3.1.2).
CYCLES_PER_ITERATION = 3


@dataclass
class MatchResult:
    """Outcome of one full (multi-iteration) matching round."""

    matches: List[Demand] = field(default_factory=list)
    iterations: int = 0

    @property
    def cycles(self) -> int:
        return self.iterations * CYCLES_PER_ITERATION

    def pairs(self) -> Set[tuple]:
        return {d.pair for d in self.matches}


class PimMatcher:
    """Runs priority-PIM rounds over a notification queue bank.

    Args:
        bank: the per-destination demand queues.
        meter: shared cycle meter (defaults to the bank's).
        max_iterations: cap on iterations per round; ``None`` runs until
            convergence (a maximal matching), which is what the hardware's
            free-running loop achieves.
    """

    def __init__(
        self,
        bank: NotificationQueueBank,
        meter: Optional[CycleMeter] = None,
        max_iterations: Optional[int] = None,
    ) -> None:
        self.bank = bank
        self.meter = meter if meter is not None else bank.meter
        if max_iterations is not None and max_iterations <= 0:
            raise SchedulerError(f"max_iterations must be positive: {max_iterations}")
        self.max_iterations = max_iterations

    def run(
        self,
        busy_src: Set[int],
        busy_dst: Set[int],
        candidates: Optional[List[int]] = None,
    ) -> MatchResult:
        """Form (an extension of) a maximal matching given busy port sets.

        ``busy_src`` / ``busy_dst`` are mutated: newly matched ports are
        added, mirroring cycle 3 of the hardware loop.  ``candidates`` are
        the destinations allowed to propose, in ascending port order; the
        default is every destination with a pending demand.  A caller may
        narrow it only to destinations that can still hold an eligible
        demand (see :class:`~repro.core.scheduler.grants.CentralScheduler`):
        the others never propose, so the result is unchanged.
        """
        if candidates is None:
            candidates = self.bank.nonempty_destinations()
        result = MatchResult()
        while True:
            if (
                self.max_iterations is not None
                and result.iterations >= self.max_iterations
            ):
                break
            proposals = self._destination_proposals(candidates, busy_src, busy_dst)
            if not proposals:
                break
            result.iterations += 1
            accepted = self._source_resolution(proposals)
            for demand in accepted:
                busy_src.add(demand.src)
                busy_dst.add(demand.dst)
                result.matches.append(demand)
        return result

    def _destination_proposals(
        self, candidates: List[int], busy_src: Set[int], busy_dst: Set[int]
    ) -> Dict[int, List[Demand]]:
        """Cycle 1: each free destination proposes to one source."""
        proposals: Dict[int, List[Demand]] = {}
        bank = self.bank
        queues = bank._queues
        meter = bank.meter
        # Only destinations with pending demands can propose; iterating
        # the candidates in ascending port order matches a scan over all N
        # ports (empty queues and non-candidates never propose) without
        # the O(N) sweep per iteration.  The eligible head is found by an
        # inline scan of the priority-ordered queue — equivalent to
        # bank.best_eligible, charged as the same single combinational peek.
        for dst in candidates:
            if dst in busy_dst:
                continue
            meter.peeks += 1
            for demand in queues[dst]._values:
                if demand.src not in busy_src:
                    src = demand.src
                    bucket = proposals.get(src)
                    if bucket is None:
                        proposals[src] = [demand]
                    else:
                        bucket.append(demand)
                    break
        return proposals

    def _source_resolution(self, proposals: Dict[int, List[Demand]]) -> List[Demand]:
        """Cycle 2: each source picks its highest-priority proposer.

        Functionally identical to loading the proposals into the source's
        sorted request array and priority-encoding the winner
        (:class:`~repro.core.scheduler.priority_encoder.SourceRequestArray`):
        the array orders entries by (priority, insertion order) and the
        encoder picks the first, i.e. the minimum over proposals by
        priority with earlier-proposed (lower-numbered) destinations
        winning ties.
        """
        accepted: List[Demand] = []
        priority = self.bank._priority_of
        for demands in proposals.values():
            if len(demands) == 1:
                accepted.append(demands[0])
                continue
            winner = demands[0]
            best = priority(winner)
            for demand in demands[1:]:
                p = priority(demand)
                if p < best:
                    best = p
                    winner = demand
            accepted.append(winner)
        return accepted
