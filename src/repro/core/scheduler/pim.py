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
:class:`NotificationQueueBank` and caller-supplied busy words, so the
grant engine can layer chunking and timed port release on top.

**The hardware's bits as int words.**  Bit ``p`` of a word is port
``p``.  The not_busy bits are the complements of the ``busy_src`` and
``busy_dst`` words.  A destination's request flags are the bank's
``_req[dst]`` word, so ``_req[dst] & ~busy_src`` is what cycle 1 can
propose from: when it is zero the destination is skipped without reading
its queue.  The destinations in play are one word, walked lowest set bit
first (``x & -x``); that walk is the priority encoder, with port order as
the encoded order.  Cycle 2's per-source sorted array is the comparison
of proposal priorities, ties going to the lower port, which is the
first proposal in the walk.

**Maximality invariant.**  Without an iteration cap a round only stops
when no free destination holds a demand from a free source, so it always
ends in a maximal matching.  Until some destination's state changes, the
next round can match nothing new there.  The grant engine therefore passes
:meth:`PimMatcher.run` only its *dirty* destinations as candidates, and
the matches, their order and the iteration count are the same as a scan
over every non-empty queue.  The grant engine's docstring states the rule.

**The uncontested round.**  Most rounds have at most one free destination
in play: one new demand, or one port pair released.  A single proposer
cannot be contested and matches in the first iteration, after which its
destination is busy and nothing is left to propose.  So when
``candidates & ~busy_dst`` has at most one bit set, :meth:`PimMatcher.run`
returns that destination's first queued demand from a free source as a
one-iteration match (no match and 0 iterations if it has none), without
building the general loop's per-source tables.  The matches and
iteration count are those of the general loop.
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
        busy_src: int = 0,
        busy_dst: int = 0,
        candidates: Optional[int] = None,
    ) -> MatchResult:
        """Form (an extension of) a maximal matching given busy port words.

        ``busy_src`` / ``busy_dst`` are the ports inside a busy window;
        the caller marks the matched ports busy itself.  ``candidates`` is
        the word of destinations allowed to propose; the default is every
        destination with a pending demand.  A caller may narrow it only to
        destinations that can still hold an eligible demand (see
        :class:`~repro.core.scheduler.grants.CentralScheduler`): the
        others never propose, so the result is unchanged.

        Each iteration is one lowest-bit-first walk over the free
        destinations still in play.  Cycle 1: a destination whose request
        word has a free source proposes its highest-priority demand from a
        free source (an inline scan of its priority-ordered queue).  Cycle
        2: each source keeps its lowest-priority-value proposal; the walk
        is in ascending port order, so ties go to the lower port.  Cycle
        3: winners' ports turn busy.

        A round with at most one free candidate is answered without the
        loop (the uncontested round, module docstring).  Otherwise only
        the destinations that proposed and lost are revisited.  Busy
        words only grow inside a round and queues do not change, so a
        destination that found no eligible demand never finds one later,
        and a winner is busy.  Matches, their order (by each source's first
        proposal) and the iteration count are those of re-scanning every
        candidate each iteration.
        """
        bank = self.bank
        if candidates is None:
            candidates = bank._nonempty
        queues = bank._queues
        req = bank._req
        pending = candidates & ~busy_dst
        if not pending & (pending - 1):
            # At most one destination in play: the uncontested round
            # (module docstring).  The cap is at least one iteration.
            if pending:
                dst = pending.bit_length() - 1
                if req[dst] & ~busy_src:
                    for demand in queues[dst]._values:
                        if not busy_src >> demand.src & 1:
                            return MatchResult([demand], 1)
            return MatchResult([], 0)
        priority = bank._priority_of
        cap = self.max_iterations
        matches: List[Demand] = []
        iterations = 0
        while pending and (cap is None or iterations < cap):
            winners: Dict[int, Demand] = {}
            contested: Dict[int, float] = {}
            proposers = 0
            free_src = ~busy_src
            while pending:
                bit = pending & -pending
                pending ^= bit
                dst = bit.bit_length() - 1
                if not req[dst] & free_src:
                    continue
                for demand in queues[dst]._values:
                    src = demand.src
                    if busy_src >> src & 1:
                        continue
                    proposers |= bit
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
                busy_src |= 1 << demand.src
                busy_dst |= 1 << demand.dst
                matches.append(demand)
            pending = proposers & ~busy_dst
        return MatchResult(matches, iterations)
