"""Constant-time ordered list — the scheduler's primary hardware structure.

§3.1.2 builds the notification queues (and the per-source priority arrays)
from "recent hardware data structures for ordered lists [57-59, 63]" with
these costs: insert and delete take 2 clock cycles each and are fully
pipelined (one new operation may issue every cycle); reading the highest
priority element takes 1 clock cycle.

This module models that structure faithfully at the functional level —
a priority-ordered list with stable FIFO tie-breaking — while *accounting*
for the hardware cycle costs through a :class:`CycleMeter`, so higher
layers (the PIM engine, the latency models) can convert operation counts
into nanoseconds without the Python implementation needing to be O(1).
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.errors import SchedulerError

T = TypeVar("T")

#: Hardware cost of an insert, in scheduler clock cycles (§3.1.2).
INSERT_CYCLES = 2

#: Hardware cost of a delete, in scheduler clock cycles (§3.1.2).
DELETE_CYCLES = 2

#: Hardware cost of reading the highest-priority element (§3.1.2).
PEEK_CYCLES = 1


@dataclass
class CycleMeter:
    """Accumulates hardware cycle costs for the scheduler pipeline.

    Pipelined operations overlap: issuing k back-to-back inserts costs
    ``INSERT_CYCLES + (k - 1)`` cycles, not ``2k``.  The meter exposes both
    the raw operation counts and the pipelined latency estimate.
    """

    inserts: int = 0
    deletes: int = 0
    peeks: int = 0

    def charge_insert(self, count: int = 1) -> None:
        self.inserts += count

    def charge_delete(self, count: int = 1) -> None:
        self.deletes += count

    def charge_peek(self, count: int = 1) -> None:
        self.peeks += count

    @property
    def total_operations(self) -> int:
        return self.inserts + self.deletes + self.peeks

    def pipelined_cycles(self) -> int:
        """Latency of all charged work, assuming full pipelining per §3.1.2."""
        cycles = 0
        if self.inserts:
            cycles += INSERT_CYCLES + (self.inserts - 1)
        if self.deletes:
            cycles += DELETE_CYCLES + (self.deletes - 1)
        if self.peeks:
            cycles += PEEK_CYCLES * self.peeks
        return cycles

    def reset(self) -> None:
        self.inserts = self.deletes = self.peeks = 0


class OrderedList(Generic[T]):
    """A bounded, priority-ordered list with stable FIFO tie-breaking.

    Lower priority values are *better* (dequeue first); equal priorities
    dequeue in insertion order.  This matches both FCFS (priority = arrival
    time) and SRPT (priority = remaining bytes) as used by EDM.

    Args:
        capacity: maximum number of entries, mirroring the bounded SRAM of
            the hardware structure (``X * N`` for notification queues).
        meter: optional shared :class:`CycleMeter` for cost accounting.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        meter: Optional[CycleMeter] = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise SchedulerError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.meter = meter if meter is not None else CycleMeter()
        self._keys: List[Tuple[float, int]] = []
        self._values: List[T] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._keys)

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __iter__(self) -> Iterator[T]:
        return iter(list(self._values))

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._keys) >= self.capacity

    def insert(self, priority: float, value: T) -> None:
        """Insert ``value`` with ``priority``; 2 hardware cycles, pipelined."""
        if self.is_full:
            raise SchedulerError(
                f"ordered list full (capacity={self.capacity}); the sender-side "
                f"rate limiter should have prevented this insert"
            )
        key = (priority, next(self._seq))
        idx = bisect.bisect_right(self._keys, key)
        self._keys.insert(idx, key)
        self._values.insert(idx, value)
        self.meter.inserts += 1

    def peek(self) -> T:
        """Return (without removing) the highest-priority value; 1 cycle."""
        if not self._keys:
            raise SchedulerError("peek on an empty ordered list")
        self.meter.peeks += 1
        return self._values[0]

    def peek_priority(self) -> float:
        """Priority of the head element; shares the peek port (1 cycle)."""
        if not self._keys:
            raise SchedulerError("peek on an empty ordered list")
        self.meter.peeks += 1
        return self._keys[0][0]

    def pop(self) -> T:
        """Remove and return the highest-priority value; 2 cycles."""
        if not self._keys:
            raise SchedulerError("pop on an empty ordered list")
        self._keys.pop(0)
        self.meter.deletes += 1
        return self._values.pop(0)

    def remove(self, value: T) -> None:
        """Remove a specific entry (identity match first, equality fallback)."""
        values = self._values
        for i, v in enumerate(values):
            if v is value:
                break
        else:
            try:
                i = values.index(value)
            except ValueError:
                raise SchedulerError(
                    f"value not present in ordered list: {value!r}"
                ) from None
        del self._keys[i]
        del values[i]
        self.meter.deletes += 1

    def reprioritize(self, value: T, new_priority: float) -> None:
        """Update an entry's priority (delete + insert: used when SRPT's
        remaining-bytes state changes, §3.1.2)."""
        self.remove(value)
        self.insert(new_priority, value)

    def find_best(self, predicate) -> Optional[T]:
        """Highest-priority value satisfying ``predicate``, or None.

        In hardware, eligibility (the busy bits) is checked combinationally
        alongside the peek, so this still charges a single peek.
        """
        self.meter.peeks += 1
        for v in self._values:
            if predicate(v):
                return v
        return None

    def as_sorted_list(self) -> List[T]:
        """Snapshot of contents in priority order (for tests/inspection)."""
        return list(self._values)
