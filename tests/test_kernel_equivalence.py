"""Kernel equivalence: the heap must replay the reference's event order.

The engine's contract is a total order on (time, priority, seq) regardless
of the queue implementation.  These tests drive the tuple heap and the
sorted-list reference (``tests/reference_kernel.py``) through
hypothesis-generated schedules — same-time priority ties, nested
scheduling from callbacks, entries made stale and discarded when they
pop, deadline-chunked runs — and assert the observed firing orders and
event counts are identical element for element.
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
    """A schedule: root events, nested children, and stale entries.

    Each spec is ``(delay, priority, children, stale_index)``: children
    are posted from inside the parent's callback; ``stale_index`` names an
    earlier root event that this one marks stale when it fires.  A stale
    event still pops, but discards itself instead of firing.
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
    """Run one schedule on kernel ``kernel``: the firing order and event count.

    Each firing records which ``run`` call it fell in, so an event at a
    chunk's exact ``until`` must fire in that chunk, not the next.
    """
    with installed(kernel):
        sim = Simulator()
    fired = []
    stale = set()
    runs = [0]

    def make_callback(label, children, stale_index):
        def callback():
            if label in stale:
                sim.discard()
                return
            fired.append((runs[0], sim.now, label))
            if stale_index is not None:
                stale.add(stale_index)
            for child_offset, child_priority in children:
                child_label = (label, len(fired), child_offset)
                sim.post(
                    child_offset,
                    make_callback(child_label, [], None),
                    priority=child_priority,
                )

        return callback

    for index, (delay, priority, children, stale_index) in enumerate(specs):
        sim.post(delay, make_callback(index, children, stale_index), priority=priority)
    for until in until_chunks or ():
        sim.run(until=until)
        runs[0] += 1
    sim.run()
    # Every entry that did not discard itself fired, and only those count.
    assert sim.events_processed == len(fired)
    return fired, sim.events_processed


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
                sim.post(delay, lambda: None, priority=priority)
            sim.run()
            counts[kernel] = sim.events_processed
        assert counts["heap"] == counts["reference"]


class TestKernelBehaviour:
    """The engine's semantics, asserted on the heap and on the reference."""

    def test_simulators_build_the_named_kernel(self, kernel):
        assert type(Simulator()._queue) is KERNELS[kernel]

    def test_priority_then_insertion_ties(self, kernel):
        sim, seen = Simulator(), []
        sim.post(10, lambda: seen.append("late"), priority=5)
        sim.post(10, lambda: seen.append("first"), priority=0)
        sim.post(10, lambda: seen.append("second"), priority=0)
        sim.run()
        assert seen == ["first", "second", "late"]

    def test_until_then_resume(self, kernel):
        sim, seen = Simulator(), []
        sim.post(10, lambda: seen.append(1))
        sim.post(100, lambda: seen.append(2))
        assert sim.run(until=50) == 50
        assert seen == [1]
        sim.run()
        assert seen == [1, 2]

    def test_far_future_events_survive_dense_phases(self, kernel):
        """A sparse tail after a dense burst must still drain in order."""
        sim, seen = Simulator(), []
        for i in range(200):
            sim.post(i * 0.01, lambda i=i: None)
        sim.post(1e9, lambda: seen.append("far"))
        sim.post(5e8, lambda: seen.append("mid"))
        sim.run()
        assert seen == ["mid", "far"]

    def test_post_and_post_at(self, kernel):
        sim, seen = Simulator(), []
        sim.post(5, lambda: seen.append("a"))
        sim.post_at(2, lambda: seen.append("b"))
        sim.run()
        assert seen == ["b", "a"]

    def test_non_finite_times_rejected(self, kernel):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.post(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            sim.post_at(float("nan"), lambda: None)
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
