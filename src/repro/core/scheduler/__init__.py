"""EDM's centralized in-network memory-traffic scheduler (§3.1).

Public surface:

* :class:`~repro.core.scheduler.ordered_list.OrderedList` — the constant
  time hardware ordered list underlying every scheduler structure.
* :class:`~repro.core.scheduler.priority_encoder.SourceRequestArray` — the
  per-source sorted array + priority encoder used in PIM's second cycle.
* :class:`~repro.core.scheduler.notification_queue.NotificationQueueBank` —
  per-destination demand queues, bounded to X*N.
* :class:`~repro.core.scheduler.pim.PimMatcher` — priority-based PIM,
  3 cycles per iteration.
* :class:`~repro.core.scheduler.grants.CentralScheduler` — the grant engine
  with chunking and timed port release.
"""

from repro.core.scheduler.grants import (
    DEFAULT_CHUNK_BYTES,
    CentralScheduler,
    IssuedGrant,
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
from repro.core.scheduler.priority_encoder import SourceRequestArray, priority_encode

__all__ = [
    "CYCLES_PER_ITERATION",
    "DEFAULT_CHUNK_BYTES",
    "DEFAULT_MAX_ACTIVE_PER_PAIR",
    "CentralScheduler",
    "Demand",
    "IssuedGrant",
    "MatchResult",
    "NotificationQueueBank",
    "OrderedList",
    "PimMatcher",
    "Policy",
    "SchedulerConfig",
    "SourceRequestArray",
    "policy_for_workload",
    "priority_encode",
    "priority_of",
]
