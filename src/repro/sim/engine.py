"""Discrete-event simulation engine over a binary heap of entry tuples.

Events are totally ordered by ``(time, priority, seq)``: ties on time are
broken first by an explicit integer priority, then by insertion order, so
repeated runs with the same seed replay identically — a property the
reproduction's regression tests rely on.

The pending-event set is a binary heap of plain ``(time, priority, seq,
fn, arg)`` entry tuples driven by C ``heapq``, so ordering comparisons
run at C speed.  Every entry enters through a bound
``partial(heappush, heap)`` and the run loop pops, checks the horizon,
sets the clock and calls ``fn(arg)``, so neither side costs a Python
frame per event (a :class:`DelayLine` entry adds one), and an event
that needs one argument (a delivered payload, a matching
round's generation) carries it in the entry instead of in a per-event
``functools.partial``.  A zero-argument callback from :meth:`post` /
:meth:`post_at` rides as ``(_call, callback)``.  The test suite replays
the heap against an independent sorted-list kernel to check the order.

Nothing is cancelled.  A component that no longer wants an entry it
pushed (EDM's switch superseding a later matching round, a host's read
timer outliving its read) leaves it queued, and the callback checks when
it pops whether it still has work to do.  A stale one calls
:meth:`Simulator.discard` and returns: it pops as an uncounted no-op.
An *event* is an entry that did work; ``events_processed``,
:func:`process_events_executed` and the artifacts' ``sim_events`` count
only those.

Scheduling surface (see docs/DETERMINISM.md for the full contract):

* :meth:`Simulator.post` / :meth:`Simulator.post_at` — run a callback
  ``delay`` ns from now, or at an absolute time.
* :meth:`Simulator.inject_arrivals` — a workload's arrivals with the keys
  a loop of ``post_at`` over the stable-sorted items would give them, but
  only the next one pending.
* :class:`DelayLine` — a constant-delay stage: the keys per-entry pushes
  would give, but only the line's head on the heap.

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
``(time, priority, next(seq), fn, arg)`` entries itself:
:class:`Process` binds them once as ``_clock``, ``_seq`` and ``_push``.
Such a push skips the time checks, so it is only for times that are
finite and not before ``now`` by construction.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

EventCallback = Callable[[], None]

try:
    from operator import call as _call  # Python 3.11+: the call runs in C
except ImportError:  # pragma: no cover - Python 3.10

    def _call(callback: EventCallback) -> None:
        """Run a zero-argument callback: the ``fn`` of a :meth:`post` entry."""
        callback()

#: Events may not be scheduled at or beyond this time: the guard rejects
#: inf and NaN times, which would otherwise sit in the heap forever or
#: break its ordering (NaN compares false against everything).
MAX_EVENT_TIME = 1e300

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


#: Queue entries are plain tuples so heap sifts and comparisons run at C
#: speed; ``seq`` is unique, so the trailing ``fn`` and ``arg`` never
#: compare.
_Entry = Tuple[float, int, int, Callable[[Any], None], Any]


class _HeapKernel:
    """Binary heap of plain ``(time, priority, seq, fn, arg)`` tuples.

    Sift comparisons run in C, and ``seq`` is unique, so ``fn`` and
    ``arg`` never compare.  Entries push through :attr:`push_raw`, a
    ``partial(heappush, heap)`` bound once, so posting an event costs no
    Python frame.
    """

    __slots__ = ("_heap", "push_raw")

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self.push_raw: Callable[[_Entry], None] = partial(heappush, self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def run(self, sim: "Simulator", until: Optional[float]) -> None:
        """Execute events for :meth:`Simulator.run` (``until >= now``)."""
        global _EVENTS_EXECUTED
        heap = self._heap
        limit = MAX_EVENT_TIME if until is None else until
        processed = 0
        try:
            # Pop first, then check the horizon: the one entry past
            # ``until`` goes back once, instead of every event paying for
            # a ``heap[0][0]`` peek.
            while heap:
                time, priority, seq, fn, arg = heappop(heap)
                if time > limit:
                    heappush(heap, (time, priority, seq, fn, arg))
                    break
                sim._now = time
                fn(arg)
                processed += 1
            if until is not None:
                sim._now = until
        finally:
            sim._events_processed += processed
            _EVENTS_EXECUTED += processed


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.post(10.0, lambda: print("at t=10ns"))
        sim.run()
    """

    def __init__(self) -> None:
        self._queue = _HeapKernel()
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._events_processed = 0
        #: Every :class:`DelayLine` built on this clock: their tails are
        #: pending but off the heap.
        self._lines: List["DelayLine"] = []
        # Bound once: post/post_at run millions of times per fabric cell
        # and the kernel object never changes after construction.  It
        # takes one ``(time, priority, seq, fn, arg)`` entry tuple.
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
        """Entries popped that did work: discarded ones are not counted."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Entries still queued, stale ones included.

        A :class:`DelayLine`'s head is on the heap and its tail is not;
        both count.
        """
        return len(self._queue) + sum(len(line._tail) for line in self._lines)

    def _check_time(self, time: float) -> None:
        if not time < MAX_EVENT_TIME:  # also rejects NaN
            raise SimulationError(f"event time must be finite, got {time}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self._now}"
            )

    def discard(self) -> None:
        """Uncount the entry whose callback is running: it found itself stale.

        The callback calls this and returns, so the entry pops as a no-op
        that neither :attr:`events_processed` nor
        :func:`process_events_executed` counts (module docstring).
        """
        global _EVENTS_EXECUTED
        if not self._running:
            raise SimulationError("only a running event's callback can discard it")
        self._events_processed -= 1
        _EVENTS_EXECUTED -= 1

    def post(self, delay: float, callback: EventCallback, *, priority: int = 0) -> None:
        """Run ``callback`` ``delay`` ns from now.

        Lower ``priority`` values run earlier among same-time events.  The
        entry ``(…, _call, callback)`` goes through a bound ``heappush``;
        hot paths that pass an argument push ``(…, fn, arg)`` themselves
        (module docstring).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        time = self._now + delay
        if not time < MAX_EVENT_TIME:
            raise SimulationError(f"event time must be finite, got {time}")
        self._push((time, priority, next(self._seq), _call, callback))

    def post_at(self, time: float, callback: EventCallback, *, priority: int = 0) -> None:
        """Run ``callback`` at absolute simulation time ``time``."""
        if not self._now <= time < MAX_EVENT_TIME:
            self._check_time(time)
        self._push((time, priority, next(self._seq), _call, callback))

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
                push((key(successor), 0, next(seqs), arrive, successor))
            launch(item)

        first = next(arrivals)
        push((key(first), 0, next(seqs), arrive, first))
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
    (``post``/``post_at``) plus the read-only clock, so model code cannot tell it apart from the
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
        return self.root.pending_events

    def post(self, delay: float, callback: EventCallback, *, priority: int = 0) -> None:
        root = self.root
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        time = root._now + delay
        if not time < MAX_EVENT_TIME:
            raise SimulationError(f"event time must be finite, got {time}")
        self._push((time, priority, next(self._seq), _call, callback))

    def post_at(self, time: float, callback: EventCallback, *, priority: int = 0) -> None:
        root = self.root
        if not root._now <= time < MAX_EVENT_TIME:
            root._check_time(time)
        self._push((time, priority, next(self._seq), _call, callback))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LaneView lane={self.lane} of {self.root!r}>"


class DelayLine:
    """A constant-delay stage whose entries wait in a FIFO, not on the heap.

    ``post(arg)`` runs ``fn(arg)`` ``delay`` ns from now with the key a
    plain push gives it: ``(now + delay, 0, next(seq))``, the seq drawn
    at post time from the counter of ``sim`` (a :class:`Simulator` or a
    :class:`LaneView`).  The delay and priority are the same for every
    entry, the clock never goes back and the counter only advances, so
    the line's entries arrive in nondecreasing key order:
    the stage is already a FIFO in key order.  Only its head sits on the
    heap; when the head pops it pushes its successor before it calls
    ``fn``, so the pop order, the clock and every event count are those
    that per-entry pushes give, while the heap holds one entry per line.

    ``post`` skips the per-entry time checks, like a hot-path push
    (module docstring): the delay is checked once, here, and ``now`` is
    finite.  The tail counts in :attr:`Simulator.pending_events`.
    """

    __slots__ = ("delay", "_fn", "_clock", "_seq", "_push", "_fire", "_tail", "_armed")

    def __init__(self, sim: Any, delay: float, fn: Callable[[Any], None]) -> None:
        if not 0 <= delay < MAX_EVENT_TIME:  # also rejects NaN
            raise SimulationError(f"line delay must be finite and >= 0, got {delay}")
        self.delay = delay
        self._fn = fn
        self._clock: Simulator = sim.root
        self._seq = sim._seq
        self._push = sim._push
        self._fire = self._pop_head  # bound once: every entry carries it
        #: Posted entries behind the head, in key order.
        self._tail: Deque[_Entry] = deque()
        #: Whether the head is on the heap.
        self._armed = False
        self._clock._lines.append(self)

    def post(self, arg: Any) -> None:
        """Run ``fn(arg)`` ``delay`` ns from now."""
        entry = (self._clock._now + self.delay, 0, next(self._seq), self._fire, arg)
        if self._armed:
            self._tail.append(entry)
        else:
            self._armed = True
            self._push(entry)

    def _pop_head(self, arg: Any) -> None:
        tail = self._tail
        if tail:
            self._push(tail.popleft())
        else:
            self._armed = False
        self._fn(arg)


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

    def post(self, delay: float, callback: EventCallback, *, priority: int = 0) -> None:
        self.sim.post(delay, callback, priority=priority)

    @property
    def now(self) -> float:
        return self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} t={self.sim.now:.2f}ns>"
