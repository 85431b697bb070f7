"""Tests for the constant-time ordered list hardware model (§3.1.2)."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler.ordered_list import OrderedList
from repro.errors import SchedulerError


class TestOrdering:
    def test_pops_in_priority_order(self):
        ol = OrderedList()
        ol.insert(3.0, "c")
        ol.insert(1.0, "a")
        ol.insert(2.0, "b")
        assert [ol.pop(), ol.pop(), ol.pop()] == ["a", "b", "c"]

    def test_equal_priorities_fifo(self):
        ol = OrderedList()
        for v in ("first", "second", "third"):
            ol.insert(5.0, v)
        assert [ol.pop(), ol.pop(), ol.pop()] == ["first", "second", "third"]

    def test_peek_does_not_remove(self):
        ol = OrderedList()
        ol.insert(1.0, "a")
        assert ol.peek() == "a"
        assert len(ol) == 1

    def test_peek_priority(self):
        ol = OrderedList()
        ol.insert(7.5, "x")
        assert ol.peek_priority() == 7.5

    def test_reprioritize_moves_entry(self):
        ol = OrderedList()
        ol.insert(1.0, "a")
        ol.insert(2.0, "b")
        ol.reprioritize("a", 3.0)
        assert ol.pop() == "b"
        assert ol.pop() == "a"

    def test_remove_specific_value(self):
        ol = OrderedList()
        ol.insert(1.0, "a")
        ol.insert(2.0, "b")
        ol.remove("a")
        assert ol.as_sorted_list() == ["b"]

    def test_find_best_with_predicate(self):
        ol = OrderedList()
        ol.insert(1.0, 10)
        ol.insert(2.0, 21)
        ol.insert(3.0, 30)
        assert ol.find_best(lambda v: v % 2 == 1) == 21

    def test_find_best_none_when_no_match(self):
        ol = OrderedList()
        ol.insert(1.0, 10)
        assert ol.find_best(lambda v: v > 100) is None


class TestErrors:
    def test_pop_empty_raises(self):
        with pytest.raises(SchedulerError):
            OrderedList().pop()

    def test_peek_empty_raises(self):
        with pytest.raises(SchedulerError):
            OrderedList().peek()

    def test_remove_missing_raises(self):
        ol = OrderedList()
        ol.insert(1.0, "a")
        with pytest.raises(SchedulerError):
            ol.remove("zzz")

    def test_capacity_enforced(self):
        # Bounded like the X*N SRAM of the hardware structure.
        ol = OrderedList(capacity=2)
        ol.insert(1.0, "a")
        ol.insert(2.0, "b")
        assert ol.is_full
        with pytest.raises(SchedulerError):
            ol.insert(3.0, "c")

    def test_full_message(self):
        ol = OrderedList(capacity=1)
        ol.insert(1.0, "a")
        with pytest.raises(SchedulerError, match=re.escape(
            "ordered list full (capacity=1); the sender-side rate limiter "
            "should have prevented this insert"
        )):
            ol.insert(2.0, "b")
        assert ol.as_sorted_list() == ["a"]

    @pytest.mark.parametrize("op", ["remove", "reprioritize"])
    def test_absent_value_message(self, op):
        ol = OrderedList()
        ol.insert(1.0, "a")
        args = ("zzz",) if op == "remove" else ("zzz", 0.0)
        with pytest.raises(
            SchedulerError, match=re.escape("value not present in ordered list: 'zzz'")
        ) as info:
            getattr(ol, op)(*args)
        assert info.value.__cause__ is None and info.value.__suppress_context__
        assert ol.as_sorted_list() == ["a"]

    def test_zero_capacity_rejected(self):
        with pytest.raises(SchedulerError):
            OrderedList(capacity=0)


class TestProperties:
    @given(st.lists(st.tuples(st.floats(0, 1e6), st.integers()), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_pop_sequence_is_sorted_by_priority(self, items):
        ol = OrderedList()
        for priority, value in items:
            ol.insert(priority, value)
        popped_priorities = []
        snapshot = {}
        for priority, value in items:
            snapshot.setdefault(priority, 0)
        while ol:
            popped_priorities.append(ol.peek_priority())
            ol.pop()
        assert popped_priorities == sorted(popped_priorities)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_length_invariant(self, values):
        ol = OrderedList()
        for v in values:
            ol.insert(float(v), v)
        assert len(ol) == len(values)
        for expected_remaining in range(len(values) - 1, -1, -1):
            ol.pop()
            assert len(ol) == expected_remaining
