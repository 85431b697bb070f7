"""Discrete-event simulation engine over a binary heap of entry tuples.

Events are totally ordered by ``(time, priority, seq)``: ties on time are
broken first by an explicit integer priority, then by insertion order, so
repeated runs with the same seed replay identically — a property the
reproduction's regression tests rely on.

The pending-event set is a binary heap of plain ``(time, priority, seq,
payload)`` entry tuples driven by C ``heapq``, so ordering comparisons
run at C speed.  Fire-and-forget events enter through a bound
``partial(heappush, heap)`` and the run loop calls ``heappop`` inline, so
neither side costs a Python frame per event.  Cancelled events are
deleted lazily (a tombstone flag) and the heap is compacted once
tombstones outnumber live events, so a workload that arms-and-cancels
timers cannot grow the queue without bound.  The test suite replays the
heap against an independent sorted-list kernel to check the order.

Scheduling surface (see docs/DETERMINISM.md for the full contract):

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` — cancellable,
  return the pending :class:`_Event` itself (exported as
  :data:`EventHandle`), which is also the entry's payload.
* :meth:`Simulator.post` / :meth:`Simulator.post_at` — fire-and-forget; the
  hot paths use these because they skip the handle and the event object:
  the entry's payload is the bare callback.
* :meth:`Simulator.inject_arrivals` — a workload's arrivals with the keys
  a loop of ``post_at`` over the stable-sorted items would give them, but
  only the next one pending.

The clock is monotone and finite: scheduling before ``now``,
``run(until=t)`` with ``t < now``, and an inf or NaN event time or run
horizon all raise :class:`~repro.errors.SimulationError`.

Sequence numbers and lanes
--------------------------

``seq`` defaults to a single per-simulator counter, which makes tie order
depend on the global interleaving of scheduling calls: wiring one more
component, or scheduling one extra bookkeeping event, renumbers every event
after it.  :class:`LaneView` gives a component a private seq stream
``(lane << LANE_SHIFT) | n``: tie order among same-``(time, priority)``
events becomes ``(lane, n)``, a property of *which component* scheduled the
event and *how many* events it had scheduled before.  The EDM golden
fixtures pin the order these lanes produce, and fault events keyed on a
link's lane keep their keys however the rest of the cluster is wired
(docs/DETERMINISM.md).

A seq counter keeps its identity for the simulator's lifetime (it only
ever advances in place), so a hot path may hold its lane's clock (the
root :class:`Simulator`), seq counter and bound push, and push
``(time, priority, next(seq), callback)`` entries itself:
:class:`Process` binds them once as ``_clock``, ``_seq`` and ``_push``.
Such a push skips the time checks, so it is only for times that are
finite and not before ``now`` by construction.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import partial
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

EventCallback = Callable[[], None]

#: Events may not be scheduled at or beyond this time: the guard rejects
#: inf and NaN times, which would otherwise sit in the heap forever or
#: break its ordering (NaN compares false against everything).
MAX_EVENT_TIME = 1e300

#: Queues smaller than this are never compacted (not worth the rebuild).
_COMPACT_MIN = 64

#: Lane-composite sequence numbers are ``(lane << LANE_SHIFT) | n``.  The
#: low field bounds events-per-lane at 2**44 (a multi-day run at current
#: event rates); lanes are unbounded Python ints.  The shift is part of
#: the golden fixtures' event order, so it never changes.
LANE_SHIFT = 44

#: Process-wide count of events executed across every Simulator instance.
#: The experiment runner reads deltas around each cell to report
#: events/sec without threading a handle through the fabric models.
_EVENTS_EXECUTED = 0

#: End-of-stream marker for :meth:`Simulator.inject_arrivals`.
_END = object()


def process_events_executed() -> int:
    """Total events executed by all simulators in this process so far."""
    return _EVENTS_EXECUTED


class _Event:
    """One pending cancellable callback, and its own cancellation handle.

    Slotted: arming a timer allocates this one object.  The entry tuple
    pushed for it carries the event as its payload, so the kernel can
    skip it once cancelled.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "in_queue", "_kernel")

    def __init__(
        self, time: float, priority: int, seq: int, callback: EventCallback, kernel: Any
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.in_queue = True
        self._kernel = kernel

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired or was cancelled."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.in_queue:
            self._kernel.on_cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<_Event t={self.time} prio={self.priority} seq={self.seq} {state}>"


#: The public name of what :meth:`Simulator.schedule` returns.
EventHandle = _Event


#: Queue entries are plain tuples so heap sifts and comparisons run at C
#: speed; ``seq`` is unique, so the trailing payload never compares.  The
#: payload is a bare callback for fire-and-forget events (the vast
#: majority — link deliveries, pipeline stages) or an :class:`_Event` when
#: the caller holds a cancellation handle.
_Entry = Tuple[float, int, int, Any]


class _HeapKernel:
    """Binary heap of plain entry tuples — the pending-event set.

    Entries are ``(time, priority, seq, payload)`` tuples, so sift
    comparisons run in C; ``seq`` is unique, so the payload never
    compares.  Fire-and-forget events push through :attr:`push_raw`, a
    ``partial(heappush, heap)`` bound once, so posting an event costs no
    Python frame.  Cancellable events enter the same way with an
    :class:`_Event` payload: a cancelled one stays as a tombstone until it
    surfaces at the top, or until tombstones outnumber live events and the
    heap is compacted in place (the bound ``push_raw`` keeps pointing at
    the same list).
    """

    __slots__ = ("_heap", "_tombstones", "push_raw")

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._tombstones = 0
        self.push_raw: Callable[[_Entry], None] = partial(heappush, self._heap)

    def __len__(self) -> int:
        return len(self._heap) - self._tombstones

    def run(self, sim: "Simulator", until: Optional[float]) -> None:
        """Execute events for :meth:`Simulator.run` (``until >= now``)."""
        global _EVENTS_EXECUTED
        heap = self._heap
        event_type = _Event
        limit = MAX_EVENT_TIME if until is None else until
        processed = 0
        try:
            while heap and heap[0][0] <= limit:
                time, _, _, payload = heappop(heap)
                if type(payload) is event_type:
                    payload.in_queue = False
                    if payload.cancelled:
                        self._tombstones -= 1
                        continue
                    payload = payload.callback
                sim._now = time
                payload()
                processed += 1
            if until is not None:
                sim._now = until
        finally:
            sim._events_processed += processed
            _EVENTS_EXECUTED += processed

    def on_cancel(self, event: _Event) -> None:
        self._tombstones += 1
        if (
            self._tombstones > len(self._heap) - self._tombstones
            and len(self._heap) >= _COMPACT_MIN
        ):
            self.compact()

    def compact(self) -> None:
        """Drop tombstones and re-heapify the survivors, in place."""
        heap = self._heap
        live: List[_Entry] = []
        for entry in heap:
            payload = entry[3]
            if type(payload) is _Event and payload.cancelled:
                payload.in_queue = False
            else:
                live.append(entry)
        heap[:] = live
        heapify(heap)
        self._tombstones = 0

    @property
    def tombstones(self) -> int:
        return self._tombstones


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(10.0, lambda: print("at t=10ns"))
        sim.run()
    """

    def __init__(self) -> None:
        self._queue = _HeapKernel()
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._events_processed = 0
        # Bound once: post/post_at run millions of times per fabric cell
        # and the kernel object never changes after construction.  It
        # takes one ``(time, priority, seq, callback)`` entry tuple.
        self._push = self._queue.push_raw

    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def root(self) -> "Simulator":
        """This simulator: the clock a :class:`LaneView` shares."""
        return self

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) events still queued."""
        return len(self._queue)

    @property
    def tombstones(self) -> int:
        """Cancelled events awaiting lazy deletion."""
        return self._queue.tombstones

    def _check_time(self, time: float) -> None:
        if not time < MAX_EVENT_TIME:  # also rejects NaN
            raise SimulationError(f"event time must be finite, got {time}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self._now}"
            )

    def schedule(
        self, delay: float, callback: EventCallback, *, priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` ns from now.

        Lower ``priority`` values run earlier among same-time events.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        return self.schedule_at(self._now + delay, callback, priority=priority)

    def schedule_at(
        self, time: float, callback: EventCallback, *, priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        self._check_time(time)
        seq = next(self._seq)
        event = _Event(time, priority, seq, callback, self._queue)
        self._push((time, priority, seq, event))
        return event

    def post(self, delay: float, callback: EventCallback, *, priority: int = 0) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, so no cancellation.

        The hot paths (link deliveries, switch pipelines) schedule millions
        of events they never cancel; skipping the handle and the event
        object, and pushing the entry tuple through a bound ``heappush``,
        is a measurable win.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        time = self._now + delay
        if not time < MAX_EVENT_TIME:
            raise SimulationError(f"event time must be finite, got {time}")
        self._push((time, priority, next(self._seq), callback))

    def post_at(self, time: float, callback: EventCallback, *, priority: int = 0) -> None:
        """Fire-and-forget :meth:`schedule_at`."""
        if not self._now <= time < MAX_EVENT_TIME:
            self._check_time(time)
        self._push((time, priority, next(self._seq), callback))

    def inject_arrivals(
        self,
        items: Iterable[Any],
        launch: Callable[[Any], None],
        *,
        key: Callable[[Any], float],
    ) -> int:
        """Run ``launch(item)`` at absolute time ``key(item)`` for every item.

        Same keys as a loop of :meth:`post_at` (priority 0) over the items
        stable-sorted by ``key``: every time is validated before anything is
        queued, and the n arrivals take one contiguous block ``[s, s + n)``
        of the root seq counter, so every later root-lane seq is unchanged
        too.  The counter advances in place past the block, so a component
        holding it keeps drawing fresh seqs.  Only the next arrival is
        pending: each one pushes its successor before it
        calls ``launch``, so the queue holds one arrival however long the
        workload.  Returns the number of arrivals.
        """
        ordered = sorted(items, key=key)
        for item in ordered:
            self._check_time(key(item))
        count = len(ordered)
        if not count:
            return 0
        # Reserve the block by advancing the counter in place: components
        # hold this counter object, so it must never be rebound.
        first_seq = next(self._seq)
        deque(itertools.islice(self._seq, count - 1), maxlen=0)
        push = self._push
        arrivals = iter(ordered)
        seqs = itertools.count(first_seq)

        def arrive(item: Any) -> None:
            successor = next(arrivals, _END)
            if successor is not _END:
                push((key(successor), 0, next(seqs), partial(arrive, successor)))
            launch(item)

        first = next(arrivals)
        push((key(first), 0, next(seqs), partial(arrive, first)))
        return count

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or ``until`` is reached.

        Returns the simulation time when the run stopped.  The clock is
        monotone and finite: ``until`` before the current time, or not
        below :data:`MAX_EVENT_TIME` (inf, NaN), raises
        :class:`SimulationError`.  The kernel owns the pop loop.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        if until is not None:
            if not until < MAX_EVENT_TIME:  # also rejects NaN
                raise SimulationError(f"run horizon must be finite, got {until}")
            if until < self._now:
                raise SimulationError(
                    f"cannot run backwards: until={until} < now={self._now}"
                )
        self._running = True
        try:
            self._queue.run(self, until)
        finally:
            self._running = False
        return self._now

    def lane(self, lane: int) -> "LaneView":
        """A :class:`LaneView` over this simulator's clock and queue."""
        return LaneView(self, lane)


class LaneView:
    """A lane-scoped scheduling handle: shared clock and queue, private seqs.

    Components holding a LaneView schedule into the same pending-event set
    as everyone else, but their events carry sequence numbers
    ``(lane << LANE_SHIFT) | n`` drawn from a per-lane counter.  Tie order
    among same-``(time, priority)`` events then depends only on which lane
    scheduled them and each lane's local ordinal — not on the global
    interleaving of scheduling calls — so the golden fixtures and
    fault-event keys survive changes elsewhere in the wiring.

    Lane 0 is the root :class:`Simulator`'s own counter; component lanes
    must be positive.  The view exposes the scheduling surface
    (``post``/``post_at``/``schedule``/``schedule_at``)
    plus the read-only clock, so model code cannot tell it apart from the
    simulator it wraps.
    """

    __slots__ = ("root", "lane", "_seq", "_push")

    def __init__(self, sim: Simulator, lane: int) -> None:
        if lane <= 0:
            raise SimulationError(f"component lanes must be positive, got {lane}")
        self.root = sim
        self.lane = lane
        self._seq = itertools.count(lane << LANE_SHIFT)
        self._push = sim._queue.push_raw

    @property
    def now(self) -> float:
        return self.root._now

    @property
    def events_processed(self) -> int:
        return self.root._events_processed

    @property
    def pending_events(self) -> int:
        return len(self.root._queue)

    def schedule(
        self, delay: float, callback: EventCallback, *, priority: int = 0
    ) -> EventHandle:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        return self.schedule_at(self.root._now + delay, callback, priority=priority)

    def schedule_at(
        self, time: float, callback: EventCallback, *, priority: int = 0
    ) -> EventHandle:
        root = self.root
        root._check_time(time)
        seq = next(self._seq)
        event = _Event(time, priority, seq, callback, root._queue)
        self._push((time, priority, seq, event))
        return event

    def post(self, delay: float, callback: EventCallback, *, priority: int = 0) -> None:
        root = self.root
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        time = root._now + delay
        if not time < MAX_EVENT_TIME:
            raise SimulationError(f"event time must be finite, got {time}")
        self._push((time, priority, next(self._seq), callback))

    def post_at(self, time: float, callback: EventCallback, *, priority: int = 0) -> None:
        root = self.root
        if not root._now <= time < MAX_EVENT_TIME:
            root._check_time(time)
        self._push((time, priority, next(self._seq), callback))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LaneView lane={self.lane} of {self.root!r}>"


class Process:
    """Base class for simulation entities that own a reference to the engine.

    Accepts either a bare :class:`Simulator` or a
    :class:`~repro.sim.context.SimContext`; in the latter case the
    context's clock, RNG, and stats sinks are all reachable through
    ``self.ctx``.
    """

    def __init__(self, sim: Any, name: str = "") -> None:
        # Duck-typed so repro.sim.context need not be imported here
        # (context imports the engine, not the other way around).
        inner = getattr(sim, "sim", None)
        if isinstance(inner, (Simulator, LaneView)):
            self.ctx = sim
            self.sim = inner
        else:
            self.ctx = None
            self.sim = sim
        self.name = name or type(self).__name__
        # Hot-path handles (see the module docstring): the shared clock and
        # this component's lane counter and push.
        self._clock: Simulator = self.sim.root
        self._seq = self.sim._seq
        self._push = self.sim._push

    def schedule(
        self, delay: float, callback: EventCallback, *, priority: int = 0
    ) -> EventHandle:
        return self.sim.schedule(delay, callback, priority=priority)

    def post(self, delay: float, callback: EventCallback, *, priority: int = 0) -> None:
        self.sim.post(delay, callback, priority=priority)

    @property
    def now(self) -> float:
        return self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} t={self.sim.now:.2f}ns>"
