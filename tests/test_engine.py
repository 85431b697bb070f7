"""Tests for the discrete-event engine: ordering, cancellation, determinism, lanes."""

import random
from functools import partial

import pytest
from reference_kernel import each_kernel

from repro.errors import SimulationError
from repro.sim.engine import LaneView, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim, seen = Simulator(), []
        sim.schedule(30, lambda: seen.append("c"))
        sim.schedule(10, lambda: seen.append("a"))
        sim.schedule(20, lambda: seen.append("b"))
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_same_time_ties_break_by_priority_then_insertion(self):
        sim, seen = Simulator(), []
        sim.schedule(10, lambda: seen.append("late"), priority=5)
        sim.schedule(10, lambda: seen.append("first"), priority=0)
        sim.schedule(10, lambda: seen.append("second"), priority=0)
        sim.run()
        assert seen == ["first", "second", "late"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(42.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [42.5]

    def test_nested_scheduling_from_callback(self):
        sim, seen = Simulator(), []
        def outer():
            seen.append("outer")
            sim.schedule(5, lambda: seen.append("inner"))
        sim.schedule(10, outer)
        sim.run()
        assert seen == ["outer", "inner"]
        assert sim.now == 15

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)


class TestRunControl:
    def test_run_until_stops_the_clock(self):
        sim, seen = Simulator(), []
        sim.schedule(10, lambda: seen.append(1))
        sim.schedule(100, lambda: seen.append(2))
        sim.run(until=50)
        assert seen == [1]
        assert sim.now == 50

    def test_remaining_events_run_on_next_call(self):
        sim, seen = Simulator(), []
        sim.schedule(10, lambda: seen.append(1))
        sim.schedule(100, lambda: seen.append(2))
        sim.run(until=50)
        sim.run()
        assert seen == [1, 2]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim, seen = Simulator(), []
        handle = sim.schedule(10, lambda: seen.append("x"))
        handle.cancel()
        sim.run()
        assert seen == []

    def test_cancel_after_fire_is_noop(self):
        sim, seen = Simulator(), []
        handle = sim.schedule(10, lambda: seen.append("x"))
        sim.run()
        handle.cancel()
        assert seen == ["x"]

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        handle.cancel()
        assert sim.pending_events == 1


class TestDeterminism:
    def test_identical_runs_replay_identically(self):
        def run_once():
            sim, seen = Simulator(), []
            for i in range(100):
                sim.schedule((i * 37) % 13, lambda i=i: seen.append(i))
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
        # every entry point; the calls interleave in a seeded random order.
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
                view.schedule_at(10.0, partial(seen.append, tag))
            else:
                view.schedule_batch(
                    [(10.0, partial(seen.append, tag))], absolute=True
                )
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
        view.schedule(7.0, lambda: times.append(view.now))
        sim.run()
        assert times == [7.0] and sim.now == 7.0

    @pytest.mark.parametrize("lane", [0, -1])
    def test_non_positive_lane_rejected(self, lane):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.lane(lane)
        with pytest.raises(SimulationError):
            LaneView(sim, lane)
