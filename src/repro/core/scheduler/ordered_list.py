"""Constant-time ordered list — the scheduler's primary hardware structure.

§3.1.2 builds the notification queues (and the per-source priority arrays)
from "recent hardware data structures for ordered lists [57-59, 63]" with
these costs: insert and delete take 2 clock cycles each and are fully
pipelined (one new operation may issue every cycle); reading the highest
priority element takes 1 clock cycle.

This module models that structure at the functional level — a
priority-ordered list with stable FIFO tie-breaking.  The simulated time
of a matching round comes from §3.1.3's latency model
(:func:`repro.core.clock.matching_latency_ns`), not from counting list
operations, so the Python implementation need not be O(1).
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.errors import SchedulerError

T = TypeVar("T")


class OrderedList(Generic[T]):
    """A bounded, priority-ordered list with stable FIFO tie-breaking.

    Lower priority values are *better* (dequeue first); equal priorities
    dequeue in insertion order.  This matches both FCFS (priority = arrival
    time) and SRPT (priority = remaining bytes) as used by EDM.

    Args:
        capacity: maximum number of entries, mirroring the bounded SRAM of
            the hardware structure (``X * N`` for notification queues).
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise SchedulerError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
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
        keys = self._keys
        capacity = self.capacity
        if capacity is not None and len(keys) >= capacity:
            raise SchedulerError(
                f"ordered list full (capacity={capacity}); the sender-side "
                f"rate limiter should have prevented this insert"
            )
        key = (priority, next(self._seq))
        idx = bisect_right(keys, key)
        keys.insert(idx, key)
        self._values.insert(idx, value)

    def peek(self) -> T:
        """Return (without removing) the highest-priority value; 1 cycle."""
        if not self._keys:
            raise SchedulerError("peek on an empty ordered list")
        return self._values[0]

    def peek_priority(self) -> float:
        """Priority of the head element; shares the peek port (1 cycle)."""
        if not self._keys:
            raise SchedulerError("peek on an empty ordered list")
        return self._keys[0][0]

    def pop(self) -> T:
        """Remove and return the highest-priority value; 2 cycles."""
        if not self._keys:
            raise SchedulerError("pop on an empty ordered list")
        self._keys.pop(0)
        return self._values.pop(0)

    def _index(self, value: T) -> int:
        # The first entry that is (or equals) ``value``; the scheduler's
        # entries (demands, port ids) compare by identity or are unique.
        try:
            return self._values.index(value)
        except ValueError:
            raise SchedulerError(
                f"value not present in ordered list: {value!r}"
            ) from None

    def remove(self, value: T) -> None:
        """Remove a specific entry."""
        values = self._values
        try:
            i = values.index(value)
        except ValueError:
            self._index(value)  # raises: not present
        del self._keys[i]
        del values[i]

    def reprioritize(self, value: T, new_priority: float) -> None:
        """Update an entry's priority: one delete + insert, so the entry
        moves behind the ties of its new priority (used when SRPT's
        remaining-bytes state changes, §3.1.2)."""
        values = self._values
        try:
            i = values.index(value)
        except ValueError:
            self._index(value)  # raises: not present
        keys = self._keys
        del keys[i]
        del values[i]
        key = (new_priority, next(self._seq))
        idx = bisect_right(keys, key)
        keys.insert(idx, key)
        values.insert(idx, value)

    def find_best(self, predicate) -> Optional[T]:
        """Highest-priority value satisfying ``predicate``, or None.

        In hardware, eligibility (the busy bits) is checked combinationally
        alongside the peek (one cycle).
        """
        for v in self._values:
            if predicate(v):
                return v
        return None

    def as_sorted_list(self) -> List[T]:
        """Snapshot of contents in priority order (for tests/inspection)."""
        return list(self._values)
