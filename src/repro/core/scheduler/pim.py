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

from typing import Dict, List, Optional, Set

from repro.core.scheduler.notification_queue import Demand, NotificationQueueBank
from repro.errors import SchedulerError

#: Clock cycles per PIM iteration in EDM's hardware pipeline (§3.1.2).
CYCLES_PER_ITERATION = 3


class MatchResult:
    """Outcome of one full (multi-iteration) matching round."""

    __slots__ = ("matches", "iterations")

    def __init__(
        self, matches: Optional[List[Demand]] = None, iterations: int = 0
    ) -> None:
        self.matches: List[Demand] = [] if matches is None else matches
        self.iterations = iterations

    @property
    def cycles(self) -> int:
        return self.iterations * CYCLES_PER_ITERATION

    def pairs(self) -> Set[tuple]:
        return {d.pair for d in self.matches}


class PimMatcher:
    """Runs priority-PIM rounds over a notification queue bank.

    Args:
        bank: the per-destination demand queues.
        max_iterations: cap on iterations per round; ``None`` runs until
            convergence (a maximal matching), which is what the hardware's
            free-running loop achieves.
    """

    def __init__(
        self,
        bank: NotificationQueueBank,
        max_iterations: Optional[int] = None,
    ) -> None:
        self.bank = bank
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

        Each iteration is one pass over the destinations still in play.
        Cycle 1: every free destination proposes its highest-priority
        demand from a free source (an inline scan of its priority-ordered
        queue).  Cycle 2: each source keeps its lowest-priority-value
        proposal; destinations propose in ascending port order, so ties go
        to the lower port.  This is what loading the source's sorted
        request array and priority-encoding it
        (:class:`~repro.core.scheduler.priority_encoder.SourceRequestArray`)
        selects.  Cycle 3: winners' ports turn busy.

        Only the destinations that proposed and lost are revisited.  Busy
        sets only grow inside a round and queues do not change, so a
        destination that found no eligible demand never finds one later,
        and a winner is busy.  Matches, their order (by each source's first
        proposal) and the iteration count are those of re-scanning every
        candidate each iteration.
        """
        if candidates is None:
            candidates = self.bank.nonempty_destinations()
        queues = self.bank._queues
        priority = self.bank._priority_of
        cap = self.max_iterations
        matches: List[Demand] = []
        iterations = 0
        pending = candidates
        while pending and (cap is None or iterations < cap):
            winners: Dict[int, Demand] = {}
            contested: Dict[int, float] = {}
            proposers: List[int] = []
            for dst in pending:
                if dst in busy_dst:
                    continue
                for demand in queues[dst]._values:
                    src = demand.src
                    if src in busy_src:
                        continue
                    proposers.append(dst)
                    held = winners.get(src)
                    if held is None:
                        winners[src] = demand
                    else:
                        best = contested.get(src)
                        if best is None:
                            best = priority(held)
                        p = priority(demand)
                        if p < best:
                            winners[src] = demand
                            best = p
                        contested[src] = best
                    break
            if not winners:
                break
            iterations += 1
            for demand in winners.values():
                busy_src.add(demand.src)
                busy_dst.add(demand.dst)
                matches.append(demand)
            pending = [dst for dst in proposers if dst not in busy_dst]
        return MatchResult(matches, iterations)
