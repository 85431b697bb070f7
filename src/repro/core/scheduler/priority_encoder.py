"""Fast priority encoder (§3.1.2).

During the second cycle of each PIM iteration, every source port must pick
the highest-priority matching request out of up to N destination requests.
EDM trades hardware for time: per source port it keeps an N-entry array of
destination ports *sorted by the best priority in each destination's
notification queue*, plus one boolean per index.  Destinations requesting a
match set their boolean in parallel; a priority encoder then returns the
most significant set index — the winning destination — in one clock cycle.

This module models that array + encoder pair.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.scheduler.ordered_list import OrderedList
from repro.errors import SchedulerError

#: Hardware cost of one priority-encoder resolution, in clock cycles.
ENCODE_CYCLES = 1


def priority_encode(bits: List[bool]) -> Optional[int]:
    """Return the lowest index whose bit is set, or None if all are clear.

    "Most significant" in the paper's array means the entry holding the
    best (lowest-value) priority; our arrays are sorted best-first, so the
    winning index is the first set bit.
    """
    for i, b in enumerate(bits):
        if b:
            return i
    return None


class SourceRequestArray:
    """The per-source-port sorted array + boolean flags + priority encoder.

    Args:
        num_ports: N, the number of switch ports.
    """

    def __init__(self, num_ports: int) -> None:
        if num_ports < 2:
            raise SchedulerError(f"need at least 2 ports, got {num_ports}")
        self.num_ports = num_ports
        # Ordered list of destination port ids keyed by the best priority in
        # that destination's notification queue (§3.1.2: "implemented using
        # the same ordered list data structure as the notification queue").
        self._order: OrderedList[int] = OrderedList(capacity=num_ports)
        self._present = [False] * num_ports
        self._flags = [False] * num_ports
        self.encodes = 0

    def update_destination(self, dst: int, best_priority: Optional[float]) -> None:
        """Refresh ``dst``'s position after its queue head priority changed.

        ``best_priority`` of None means the destination has no pending
        demand for this source and is removed from the array.
        """
        self._check_port(dst)
        if self._present[dst]:
            self._order.remove(dst)
            self._present[dst] = False
        if best_priority is not None:
            self._order.insert(best_priority, dst)
            self._present[dst] = True

    def request(self, dst: int) -> None:
        """Destination ``dst`` raises its matching-request flag (cycle 2)."""
        self._check_port(dst)
        if not self._present[dst]:
            raise SchedulerError(
                f"destination {dst} raised a request without a registered demand"
            )
        self._flags[dst] = True

    def clear_requests(self) -> None:
        self._flags = [False] * self.num_ports

    def resolve(self) -> Optional[int]:
        """Return the destination with the highest-priority request (1 cycle)."""
        self.encodes += 1
        ordered_dsts = self._order.as_sorted_list()
        bits = [self._flags[d] for d in ordered_dsts]
        idx = priority_encode(bits)
        if idx is None:
            return None
        return ordered_dsts[idx]

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.num_ports:
            raise SchedulerError(
                f"port {port} out of range for a {self.num_ports}-port switch"
            )
