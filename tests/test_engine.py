"""Tests for the discrete-event engine: ordering, discard, determinism,
lanes and delay lines."""

import math
import random
from collections import defaultdict
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_kernel import each_kernel

from repro.errors import SimulationError
from repro.sim.engine import DelayLine, LaneView, Simulator, process_events_executed
from repro.sim.link import Link


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim, seen = Simulator(), []
        sim.post(30, lambda: seen.append("c"))
        sim.post(10, lambda: seen.append("a"))
        sim.post(20, lambda: seen.append("b"))
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_same_time_ties_break_by_priority_then_insertion(self):
        sim, seen = Simulator(), []
        sim.post(10, lambda: seen.append("late"), priority=5)
        sim.post(10, lambda: seen.append("first"), priority=0)
        sim.post(10, lambda: seen.append("second"), priority=0)
        sim.run()
        assert seen == ["first", "second", "late"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.post(42.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [42.5]

    def test_nested_scheduling_from_callback(self):
        sim, seen = Simulator(), []
        def outer():
            seen.append("outer")
            sim.post(5, lambda: seen.append("inner"))
        sim.post(10, outer)
        sim.run()
        assert seen == ["outer", "inner"]
        assert sim.now == 15

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.post(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.post(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.post_at(5, lambda: None)


class TestRunControl:
    def test_run_until_stops_the_clock(self):
        sim, seen = Simulator(), []
        sim.post(10, lambda: seen.append(1))
        sim.post(100, lambda: seen.append(2))
        sim.run(until=50)
        assert seen == [1]
        assert sim.now == 50

    def test_remaining_events_run_on_next_call(self):
        sim, seen = Simulator(), []
        sim.post(10, lambda: seen.append(1))
        sim.post(100, lambda: seen.append(2))
        sim.run(until=50)
        sim.run()
        assert seen == [1, 2]

    @pytest.mark.parametrize("until", [math.inf, math.nan, 1e300])
    def test_non_finite_until_rejected_and_clock_kept(self, kernel, until):
        sim, seen = Simulator(), []
        sim.post(5.0, partial(seen.append, 5.0))
        with pytest.raises(SimulationError):
            sim.run(until=until)
        assert sim.now == 0.0 and seen == []
        # The clock is untouched, so the past stays in the past.
        sim.run(until=2.0)
        with pytest.raises(SimulationError):
            sim.post_at(1.0, partial(seen.append, 1.0))
        sim.post(1.0, partial(seen.append, 3.0))
        assert sim.run() == 5.0
        assert seen == [3.0, 5.0]


class TestEntryShape:
    """Entries are ``(time, priority, seq, fn, arg)``: the kernel calls ``fn(arg)``."""

    @pytest.mark.parametrize("seed", range(3))
    def test_posts_and_raw_pushes_tie_in_seq_order(self, kernel, seed):
        sim, seen = Simulator(), []
        rng = random.Random(seed)
        for n in range(12):
            way = rng.randrange(3)
            if way == 0:
                sim.post(5.0, partial(seen.append, n))
            elif way == 1:
                sim.post_at(5.0, partial(seen.append, n))
            else:
                sim._push((5.0, 0, next(sim._seq), seen.append, n))
        sim._push((5.0, 1, next(sim._seq), seen.append, "late priority"))
        sim.run()
        assert seen == list(range(12)) + ["late priority"]

    def test_the_argument_rides_in_the_entry(self, kernel):
        sim, seen = Simulator(), []
        sim._push((1.0, 0, next(sim._seq), seen.append, None))
        sim._push((2.0, 0, next(sim._seq), seen.append, (3, "x")))
        sim.post(3.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [None, (3, "x"), 3.0]
        assert sim.events_processed == 3


class TestDiscard:
    """A stale entry pops as a no-op that no event count sees."""

    def test_discarded_entries_are_not_events(self, kernel):
        sim, seen = Simulator(), []
        before = process_events_executed()
        sim.post(10, lambda: seen.append("live"))
        sim.post(20, sim.discard)
        sim.post(30, lambda: seen.append("live again"))
        assert sim.run() == 30
        assert seen == ["live", "live again"]
        assert sim.events_processed == 2
        assert process_events_executed() - before == 2

    def test_discard_outside_a_callback_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.discard()
        assert sim.events_processed == 0


class TestSeqCounterIdentity:
    """A component may hold its lane's seq counter: it is never rebound."""

    def test_inject_arrivals_advances_a_held_counter_past_its_block(self):
        sim = Simulator()
        held = sim._seq
        count = sim.inject_arrivals(
            [0.0, 0.64, 0.64], lambda item: None, key=lambda item: item
        )
        assert count == 3
        assert sim._seq is held
        # The arrivals took seqs [0, 3); the next root-lane seq follows.
        assert next(held) == 3

    def test_root_lane_link_sends_after_injected_arrivals(self, kernel):
        # A link on the root lane holds the root counter.  Its delivery
        # ties the second and third arrivals on (time, priority), so a
        # reused seq would compare the entries' callbacks.
        sim, seen = Simulator(), []
        link = Link(sim, bandwidth_gbps=100.0, propagation_ns=0.0,
                    receiver=lambda payload: seen.append((sim.now, payload)))

        def launch(item):
            seen.append((sim.now, item))
            if item == "a":
                link.send("delivered", 8)

        times = {"a": 0.0, "b": 0.64, "c": 0.64}
        sim.inject_arrivals(list(times), launch, key=times.get)
        sim.run()
        assert seen == [(0.0, "a"), (0.64, "b"), (0.64, "c"), (0.64, "delivered")]


class TestDeterminism:
    def test_identical_runs_replay_identically(self):
        def run_once():
            sim, seen = Simulator(), []
            for i in range(100):
                sim.post((i * 37) % 13, lambda i=i: seen.append(i))
            sim.run()
            return seen

        assert run_once() == run_once()


class TestLaneView:
    """Lanes give components private seq streams: ties run in (lane, n) order."""

    @each_kernel
    @pytest.mark.parametrize("seed", range(5))
    def test_ties_run_in_lane_order_whatever_the_scheduling_order(
        self, kernel, seed
    ):
        sim, seen = Simulator(), []
        lanes = {lane: sim.lane(lane) for lane in (1, 2, 5)}
        # Each lane schedules three same-(time, priority) events through
        # every entry point (the last is the hot-path push of the engine
        # module docstring); the calls interleave in a seeded random order.
        calls = [(lane, n) for lane in lanes for n in range(3)]
        random.Random(seed).shuffle(calls)
        issued = {lane: 0 for lane in lanes}
        for lane, _ in calls:
            n = issued[lane]
            issued[lane] += 1
            tag = (lane, n)
            view = lanes[lane]
            if n == 0:
                view.post(10.0, partial(seen.append, tag))
            elif n == 1:
                view.post_at(10.0, partial(seen.append, tag))
            else:
                view._push((10.0, 0, next(view._seq), seen.append, tag))
        # The root simulator is lane 0, so its events lead every tie.
        sim.post_at(10.0, partial(seen.append, (0, 0)))
        sim.run()
        assert seen == [(0, 0)] + sorted(calls)

    def test_priority_outranks_lane(self, kernel):
        sim, seen = Simulator(), []
        sim.lane(1).post(5.0, partial(seen.append, "low lane, late priority"),
                         priority=1)
        sim.lane(9).post(5.0, partial(seen.append, "high lane, early priority"))
        sim.run()
        assert seen == ["high lane, early priority", "low lane, late priority"]

    def test_views_share_the_root_clock(self):
        sim = Simulator()
        view = sim.lane(3)
        times = []
        view.post(7.0, lambda: times.append(view.now))
        sim.run()
        assert times == [7.0] and sim.now == 7.0

    @pytest.mark.parametrize("lane", [0, -1])
    def test_non_positive_lane_rejected(self, lane):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.lane(lane)
        with pytest.raises(SimulationError):
            LaneView(sim, lane)


class PushLine:
    """The oracle of :class:`DelayLine`: one heap entry per post, pushed
    with the key a hot path gives it."""

    def __init__(self, sim, delay, fn):
        self.sim, self.delay, self.fn = sim, delay, fn

    def post(self, arg):
        sim = self.sim
        sim._push((sim.root.now + self.delay, 0, next(sim._seq), self.fn, arg))


#: Few delays, so lines, posts and absolute times tie often.
DELAYS = [0.0, 0.5, 1.0, 2.5]

#: ``(handle, delay)`` of each line.
line_specs = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from(DELAYS)), min_size=1, max_size=4
)
#: ``(parent, handle, kind, choice, priority)``: op ``i`` is issued at the
#: start, or by the callback of an earlier op (``parent % (i + 1) - 1``).
scheduling_ops = st.lists(
    st.tuples(
        st.integers(0, 40), st.integers(0, 2),
        st.sampled_from(["line", "post", "post_at"]),
        st.integers(0, 3), st.integers(0, 1),
    ),
    min_size=1, max_size=30,
)
horizons = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0, 5.0]), max_size=3)


def replay_lines(line_cls, specs, ops, stops):
    """Callback order and times, pending counts at each stop, event count."""
    sim = Simulator()
    handles = [sim, sim.lane(1), sim.lane(2)]
    runs, seen, children, roots = [0], [], defaultdict(list), []
    for i, op in enumerate(ops):
        parent = op[0] % (i + 1) - 1
        (roots if parent < 0 else children[parent]).append(i)

    def fire(i):
        seen.append((runs[0], i, sim.now))
        for child in children[i]:
            issue(child)

    lines = [line_cls(handles[h], delay, fire) for h, delay in specs]

    def issue(i):
        _, handle, kind, choice, priority = ops[i]
        if kind == "line":
            lines[choice % len(lines)].post(i)
        elif kind == "post":
            handles[handle].post(DELAYS[choice], partial(fire, i), priority=priority)
        else:
            at = math.ceil(sim.now) + DELAYS[choice]
            handles[handle].post_at(at, partial(fire, i), priority=priority)

    for i in roots:
        issue(i)
    pending = []
    for until in sorted(stops):
        sim.run(until=max(until, sim.now))
        runs[0] += 1
        pending.append(sim.pending_events)
    sim.run()
    assert sim.pending_events == 0
    return seen, pending, sim.events_processed


class TestDelayLine:
    """A line runs its entries exactly as one heap entry per post would."""

    @each_kernel
    @settings(max_examples=150, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(specs=line_specs, ops=scheduling_ops, stops=horizons)
    def test_lines_replay_per_entry_pushes(self, kernel, specs, ops, stops):
        lined = replay_lines(DelayLine, specs, ops, stops)
        assert lined == replay_lines(PushLine, specs, ops, stops)
        assert len(lined[0]) == len(ops)

    def test_run_until_stops_mid_line_and_resumes(self, kernel):
        sim, seen = Simulator(), []
        line = DelayLine(sim.lane(3), 10.0, seen.append)
        for n in range(4):
            sim.post(float(n), partial(line.post, n))
        sim.post_at(11.0, partial(seen.append, "tie"))
        # The entry exactly at ``until`` runs; the root lane's post ties
        # it and goes first.  The head waits on the heap, one entry in
        # the tail.
        assert sim.run(until=11.0) == 11.0
        assert seen == [0, "tie", 1]
        assert sim.pending_events == 2
        assert sim.run() == 13.0
        assert seen == [0, "tie", 1, 2, 3]
        assert sim.pending_events == 0 and sim.events_processed == 9

    def test_lane_pending_events_counts_the_tail(self):
        sim = Simulator()
        lane = sim.lane(2)
        line = DelayLine(lane, 1.0, lambda arg: None)
        for n in range(3):
            line.post(n)
        assert len(sim._queue) == 1
        assert sim.pending_events == lane.pending_events == 3

    @pytest.mark.parametrize("delay", [-1.0, math.inf, math.nan, 1e300])
    def test_bad_delay_rejected(self, delay):
        sim = Simulator()
        for handle in (sim, sim.lane(1)):
            with pytest.raises(SimulationError):
                DelayLine(handle, delay, lambda arg: None)
        assert sim._lines == []
