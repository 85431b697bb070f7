"""Kernel equivalence: the heap must replay the reference's event order.

The engine's contract is a total order on (time, priority, seq) regardless
of the queue implementation.  These tests drive the tuple heap and the
sorted-list reference (``tests/reference_kernel.py``) through
hypothesis-generated schedules — same-time priority ties, nested
scheduling from callbacks, cancellations, deadline-chunked runs —
and assert the observed firing orders are identical element for element.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_kernel import KERNELS, installed

from repro.errors import SimulationError
from repro.sim.engine import Simulator

#: A small time grid so same-time ties are common, plus arbitrary floats.
TIME_GRID = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.75, 10.0, 64.0, 1000.0]

times = st.one_of(
    st.sampled_from(TIME_GRID),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)

priorities = st.integers(min_value=-2, max_value=3)


@st.composite
def schedules(draw, max_events: int = 24):
    """A schedule: root events, nested children, and cancellations.

    Each spec is ``(delay, priority, children, cancel_index)``: children
    are posted (fire-and-forget) from inside the parent's callback;
    ``cancel_index`` names an earlier root event whose handle is cancelled
    when this one fires.
    """
    count = draw(st.integers(min_value=1, max_value=max_events))
    specs = []
    for index in range(count):
        specs.append(
            (
                draw(times),
                draw(priorities),
                draw(
                    st.lists(
                        st.tuples(times, priorities),
                        min_size=0,
                        max_size=2,
                    )
                ),
                draw(st.one_of(st.none(), st.integers(0, index))),
            )
        )
    return specs


def replay(kernel, specs, until_chunks=None):
    """Run one schedule on kernel ``kernel``; returns the firing order.

    Each firing records which ``run`` call it fell in, so an event at a
    chunk's exact ``until`` must fire in that chunk, not the next.
    """
    with installed(kernel):
        sim = Simulator()
    fired = []
    handles = {}
    runs = [0]

    def make_callback(label, children, cancel_index):
        def callback():
            fired.append((runs[0], sim.now, label))
            if cancel_index is not None and cancel_index in handles:
                handles[cancel_index].cancel()
            for child_offset, child_priority in children:
                child_label = (label, len(fired), child_offset)
                sim.post(
                    child_offset,
                    make_callback(child_label, [], None),
                    priority=child_priority,
                )

        return callback

    for index, (delay, priority, children, cancel_index) in enumerate(specs):
        handles[index] = sim.schedule(
            delay, make_callback(index, children, cancel_index), priority=priority
        )
    for until in until_chunks or ():
        sim.run(until=until)
        runs[0] += 1
    sim.run()
    return fired


class TestKernelEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(specs=schedules())
    def test_replay_identical(self, specs):
        assert replay("heap", specs) == replay("reference", specs)

    @settings(max_examples=60, deadline=None)
    @given(specs=schedules())
    def test_replay_identical_with_deadline_chunks(self, specs):
        chunks = [0.5, 1.0, 2.0, 64.0]
        assert replay("heap", specs, chunks) == replay("reference", specs, chunks)


    @settings(max_examples=40, deadline=None)
    @given(specs=schedules(max_events=12))
    def test_events_processed_match(self, specs):
        counts = {}
        for kernel in KERNELS:
            with installed(kernel):
                sim = Simulator()
            for delay, priority, _, _ in specs:
                sim.schedule(delay, lambda: None, priority=priority)
            sim.run()
            counts[kernel] = sim.events_processed
        assert counts["heap"] == counts["reference"]


class TestKernelBehaviour:
    """The engine's semantics, asserted on the heap and on the reference."""

    def test_simulators_build_the_named_kernel(self, kernel):
        assert type(Simulator()._queue) is KERNELS[kernel]

    def test_priority_then_insertion_ties(self, kernel):
        sim, seen = Simulator(), []
        sim.schedule(10, lambda: seen.append("late"), priority=5)
        sim.schedule(10, lambda: seen.append("first"), priority=0)
        sim.schedule(10, lambda: seen.append("second"), priority=0)
        sim.run()
        assert seen == ["first", "second", "late"]

    def test_until_then_resume(self, kernel):
        sim, seen = Simulator(), []
        sim.schedule(10, lambda: seen.append(1))
        sim.schedule(100, lambda: seen.append(2))
        assert sim.run(until=50) == 50
        assert seen == [1]
        sim.run()
        assert seen == [1, 2]

    def test_far_future_events_survive_dense_phases(self, kernel):
        """A sparse tail after a dense burst must still drain in order."""
        sim, seen = Simulator(), []
        for i in range(200):
            sim.schedule(i * 0.01, lambda i=i: None)
        sim.schedule(1e9, lambda: seen.append("far"))
        sim.schedule(5e8, lambda: seen.append("mid"))
        sim.run()
        assert seen == ["mid", "far"]

    def test_cancelled_mass_compaction(self, kernel):
        """Tombstones exceeding half the queue trigger compaction."""
        sim = Simulator()
        handles = [sim.schedule(10 + i, lambda: None) for i in range(256)]
        survivor_count = 16
        for handle in handles[survivor_count:]:
            handle.cancel()
        assert sim.pending_events == survivor_count
        # Lazy deletion must not retain ~240 tombstones: compaction fires
        # once they exceed half the queue (queues under 64 entries are
        # never compacted, so small queues may keep a few).
        assert sim.tombstones <= max(sim.pending_events, 63)
        assert sim.run() == 10 + survivor_count - 1
        assert sim.events_processed == survivor_count

    def test_cancel_after_fire_is_noop(self, kernel):
        sim, seen = Simulator(), []
        handle = sim.schedule(1, lambda: seen.append("x"))
        sim.run()
        handle.cancel()
        handle.cancel()
        assert seen == ["x"]
        assert sim.tombstones == 0

    def test_post_and_post_at(self, kernel):
        sim, seen = Simulator(), []
        sim.post(5, lambda: seen.append("a"))
        sim.post_at(2, lambda: seen.append("b"))
        sim.run()
        assert seen == ["b", "a"]

    def test_non_finite_times_rejected(self, kernel):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.post(float("nan"), lambda: None)

    def test_run_until_before_now_raises(self, kernel):
        """The clock is monotone: a past ``until`` must not rewind it
        behind events that already ran (it used to, with events pending)."""
        sim, seen = Simulator(), []
        sim.post_at(10.0, lambda: seen.append(10))
        sim.post_at(20.0, lambda: seen.append(20))
        assert sim.run(until=15.0) == 15.0
        with pytest.raises(SimulationError):
            sim.run(until=5.0)
        assert sim.now == 15.0
        with pytest.raises(SimulationError):
            sim.post_at(0.0, lambda: seen.append(0))
        assert sim.run() == 20.0
        assert seen == [10, 20]
