"""EDM's centralized in-network memory-traffic scheduler (§3.1).

Public surface:

* :class:`~repro.core.scheduler.ordered_list.OrderedList` — the constant
  time hardware ordered list underlying every scheduler structure.
* :class:`~repro.core.scheduler.notification_queue.NotificationQueueBank` —
  per-destination demand queues, bounded to X*N.
* :class:`~repro.core.scheduler.pim.PimMatcher` — priority-based PIM,
  3 cycles per iteration, over int words of port bits (§3.1.2's request
  flags, not_busy bits and priority encoder).
* :class:`~repro.core.scheduler.grants.CentralScheduler` — the grant engine
  with chunking and timed port release.
"""

from repro.core.scheduler.grants import (
    DEFAULT_CHUNK_BYTES,
    CentralScheduler,
    SchedulerConfig,
)
from repro.core.scheduler.notification_queue import (
    DEFAULT_MAX_ACTIVE_PER_PAIR,
    Demand,
    NotificationQueueBank,
)
from repro.core.scheduler.ordered_list import OrderedList
from repro.core.scheduler.pim import CYCLES_PER_ITERATION, MatchResult, PimMatcher
from repro.core.scheduler.policies import Policy, policy_for_workload, priority_of

__all__ = [
    "CYCLES_PER_ITERATION",
    "DEFAULT_CHUNK_BYTES",
    "DEFAULT_MAX_ACTIVE_PER_PAIR",
    "CentralScheduler",
    "Demand",
    "MatchResult",
    "NotificationQueueBank",
    "OrderedList",
    "PimMatcher",
    "Policy",
    "SchedulerConfig",
    "policy_for_workload",
    "priority_of",
]
