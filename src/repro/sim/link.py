"""Point-to-point link model: serialization + propagation delay.

A :class:`Link` delivers payloads to a receiver callback after the
transmission delay (size / bandwidth) plus the propagation delay.  The link
serializes transmissions: a payload handed to :meth:`send` begins
transmission only once the transmitter is free, which models the FIFO
behaviour of a real Ethernet TX queue and lets fabric models account for
self-queuing at the sender.

A link schedules its deliveries through the simulator handle it was built
with.  Fabric models hand each link the :class:`~repro.sim.engine.LaneView`
of the component that transmits on it, so a delivery's tie-break key comes
from the sender's lane: the golden fixtures pin that order, and fault
events posted on a link's handle keep their keys however the rest of the
cluster is wired.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Iterable, List, Optional, Tuple

from repro.core.clock import gbps_to_bits_per_ns
from repro.errors import SimulationError
from repro.sim.engine import Process, Simulator

Receiver = Callable[[Any], None]


class Link(Process):
    """A unidirectional link with bandwidth and propagation delay.

    Attributes:
        bandwidth_gbps: link rate; transmission delay is ``bytes*8/rate``.
        propagation_ns: one-way propagation delay.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_gbps: float,
        propagation_ns: float,
        receiver: Optional[Receiver] = None,
        name: str = "",
    ) -> None:
        super().__init__(sim, name or "link")
        self.bandwidth = gbps_to_bits_per_ns(bandwidth_gbps)
        if propagation_ns < 0:
            raise SimulationError(f"propagation must be >= 0, got {propagation_ns}")
        self.propagation_ns = propagation_ns
        self.receiver = receiver
        self._tx_free_at = 0.0
        self._queue: Deque[Tuple[Any, int]] = deque()
        self.bytes_sent = 0
        self.busy_until = 0.0
        self.rate_factor = 1.0
        # Effective bit rate, kept in sync with rate_factor so the hot
        # send path divides by one precomputed product (the same product
        # the inline expression would form).
        self._effective_rate = self.bandwidth

    def connect(self, receiver: Receiver) -> None:
        self.receiver = receiver

    # -- fault-injection hooks (scenario engine) ------------------------- #

    def set_rate_factor(self, factor: float) -> None:
        """Scale the effective rate (degraded-bandwidth fault windows).

        The factor applies to payloads *handed to* :meth:`send` while it
        is in force — serialization cost is computed at send time, so a
        frame already accepted (even one still queued behind the
        transmitter) keeps the rate it was accepted at.  Fabric switches
        hand the link one frame at a time as the wire frees up, so for
        them send time and transmit-start time coincide.
        """
        if factor <= 0:
            raise SimulationError(f"rate factor must be positive, got {factor}")
        self.rate_factor = factor
        self._effective_rate = self.bandwidth * factor

    def block_until(self, time: float) -> None:
        """Model a link outage: no new transmission starts before ``time``.

        Sends during the outage queue behind it (the lossless-buffered
        model — frames wait in the transmitter, nothing is dropped), so
        traffic resumes in order when the window ends.  Frames already in
        flight still arrive: the outage kills the transmitter, not the
        photons on the fibre.
        """
        if time > self._tx_free_at:
            self._tx_free_at = time

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def send(self, payload: Any, size_bytes: int) -> float:
        """Enqueue ``payload`` for transmission; returns its delivery time.

        Delivery time accounts for any payloads already queued ahead of it.
        """
        receiver = self.receiver
        if receiver is None:
            raise SimulationError(f"link {self.name!r} has no receiver connected")
        if size_bytes <= 0:
            raise SimulationError(f"payload size must be positive, got {size_bytes}")
        now = self._clock._now
        free = self._tx_free_at
        start = free if free > now else now
        finish = start + size_bytes * 8.0 / self._effective_rate
        self._tx_free_at = finish
        self.busy_until = finish
        arrival = finish + self.propagation_ns
        self.bytes_sent += size_bytes
        # Inlined post_at: arrival >= now by construction (start >= now,
        # positive serialization, non-negative propagation) and finite for
        # finite payload sizes, so post_at's validation cannot fire here.
        self._push((arrival, 0, next(self._seq), partial(receiver, payload)))
        return arrival

    def send_batch(self, items: Iterable[Tuple[Any, int]]) -> List[float]:
        """Send several payloads back-to-back in one kernel operation.

        Equivalent — payload for payload, bit for bit — to calling
        :meth:`send` on each ``(payload, size_bytes)`` in order: occupancy
        is computed sequentially with the same expressions and delivery
        events receive the same consecutive sequence numbers.  The only
        difference is that all delivery events enter the pending set via a
        single ``schedule_batch`` injection, so an N-chunk drain costs one
        bucket sort instead of N sorted insertions.
        """
        receiver = self.receiver
        if receiver is None:
            raise SimulationError(f"link {self.name!r} has no receiver connected")
        now = self._clock._now
        free = self._tx_free_at
        rate = self._effective_rate
        propagation = self.propagation_ns
        entries: List[Tuple[float, Callable[[], None]]] = []
        arrivals: List[float] = []
        total = 0
        for payload, size_bytes in items:
            if size_bytes <= 0:
                raise SimulationError(
                    f"payload size must be positive, got {size_bytes}"
                )
            start = free if free > now else now
            free = start + size_bytes * 8.0 / rate
            total += size_bytes
            arrival = free + propagation
            arrivals.append(arrival)
            entries.append((arrival, partial(receiver, payload)))
        if not entries:
            return arrivals
        self._tx_free_at = free
        self.busy_until = free
        self.bytes_sent += total
        self.sim.schedule_batch(entries, absolute=True)
        return arrivals

    def next_free_time(self) -> float:
        """Earliest time a new transmission could start."""
        return max(self.now, self._tx_free_at)

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of wall-clock the transmitter was busy since ``since``."""
        elapsed = self.now - since
        if elapsed <= 0:
            return 0.0
        busy = min(self.busy_until, self.now) - since
        return max(0.0, min(1.0, busy / elapsed))


class DuplexLink:
    """A pair of :class:`Link` objects modelling a full-duplex cable."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_gbps: float,
        propagation_ns: float,
        name: str = "duplex",
    ) -> None:
        self.forward = Link(sim, bandwidth_gbps, propagation_ns, name=f"{name}.fwd")
        self.reverse = Link(sim, bandwidth_gbps, propagation_ns, name=f"{name}.rev")

    def connect(self, fwd_receiver: Receiver, rev_receiver: Receiver) -> None:
        self.forward.connect(fwd_receiver)
        self.reverse.connect(rev_receiver)
