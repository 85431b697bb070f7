"""Tests for host-side state: tables, id allocation, rate limiting."""

from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.messages import make_wreq
from repro.errors import HostError
from repro.host.state import (
    MessageIdAllocator,
    MessageState,
    MessageStateTable,
    NotificationRateLimiter,
)


def wreq(dst=1, size=64, src=0):
    return make_wreq(src, dst, address=0, data_bytes=size)


class TestStateTable:
    def test_add_get_remove(self):
        table = MessageStateTable()
        state = MessageState(message=wreq())
        table.add(1, 5, state)
        assert table.get(1, 5) is state
        assert table.find(1, 5) is state
        assert table.remove(1, 5) is state
        assert table.find(1, 5) is None

    def test_duplicate_key_rejected(self):
        table = MessageStateTable()
        table.add(1, 5, MessageState(message=wreq()))
        with pytest.raises(HostError):
            table.add(1, 5, MessageState(message=wreq()))

    def test_missing_key_raises(self):
        table = MessageStateTable()
        with pytest.raises(HostError):
            table.get(9, 9)
        with pytest.raises(HostError):
            table.remove(9, 9)

    def test_same_id_different_peers_coexist(self):
        table = MessageStateTable()
        table.add(1, 0, MessageState(message=wreq(dst=1)))
        table.add(2, 0, MessageState(message=wreq(dst=2)))
        assert len(table) == 2


class TestIdAllocator:
    def test_ids_unique_while_active(self):
        alloc = MessageIdAllocator()
        ids = {alloc.allocate(1) for _ in range(256)}
        assert len(ids) == 256

    def test_exhaustion_raises(self):
        alloc = MessageIdAllocator(id_space=2)
        alloc.allocate(1)
        alloc.allocate(1)
        with pytest.raises(HostError):
            alloc.allocate(1)

    def test_release_recycles(self):
        alloc = MessageIdAllocator(id_space=1)
        i = alloc.allocate(1)
        alloc.release(1, i)
        assert alloc.allocate(1) == i

    def test_per_peer_spaces_independent(self):
        alloc = MessageIdAllocator(id_space=1)
        alloc.allocate(1)
        alloc.allocate(2)  # different peer: fine

    def test_release_toward_unused_peer_rejected(self):
        alloc = MessageIdAllocator()
        with pytest.raises(HostError, match="not outstanding"):
            alloc.release(7, 5)
        # The peer's fresh ids are untouched by the rejected release.
        assert [alloc.allocate(7) for _ in range(256)] == list(range(256))

    def test_double_release_rejected(self):
        alloc = MessageIdAllocator(id_space=2)
        first = alloc.allocate(1)
        alloc.release(1, first)
        with pytest.raises(HostError, match="not outstanding"):
            alloc.release(1, first)
        # Without the guard the id would come back twice: [1, 0, 0].
        assert [alloc.allocate(1), alloc.allocate(1)] == [1, 0]
        with pytest.raises(HostError, match="exhausted"):
            alloc.allocate(1)

    def test_release_of_never_allocated_id_rejected(self):
        alloc = MessageIdAllocator(id_space=4)
        alloc.allocate(1)
        for bad in (1, 3, -1):
            with pytest.raises(HostError, match="not outstanding"):
                alloc.release(1, bad)

    def test_silent_peers_cost_no_recycled_store(self):
        alloc = MessageIdAllocator()
        for peer in range(100):
            assert alloc.allocate(peer) == 0
        assert alloc._recycled == {}


class _FifoAllocator:
    """The pre-filled FIFO the allocator replaced: the reference model."""

    def __init__(self, id_space):
        self._free = {}
        self._id_space = id_space

    def allocate(self, peer):
        free = self._free.get(peer)
        if free is None:
            free = self._free[peer] = deque(range(self._id_space))
        if not free:
            raise HostError(f"message-id space exhausted toward peer {peer}")
        return free.popleft()

    def release(self, peer, message_id):
        self._free.setdefault(peer, deque()).append(message_id)


def _outcome(call):
    try:
        return call()
    except HostError as exc:
        return "exhausted" if "exhausted" in str(exc) else repr(exc)


@given(
    id_space=st.integers(min_value=1, max_value=5),
    ops=st.lists(
        st.tuples(
            st.booleans(),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=1_000),
        ),
        max_size=60,
    ),
)
def test_allocator_matches_fifo_reference(id_space, ops):
    """Random allocate/release traces give the FIFO's ids and exhaustion."""
    alloc, fifo = MessageIdAllocator(id_space), _FifoAllocator(id_space)
    outstanding = {}
    for is_release, peer, pick in ops:
        held = outstanding.setdefault(peer, [])
        if is_release and held:
            message_id = held.pop(pick % len(held))
            alloc.release(peer, message_id)
            fifo.release(peer, message_id)
            continue
        got = _outcome(lambda: alloc.allocate(peer))
        assert got == _outcome(lambda: fifo.allocate(peer))
        if got != "exhausted":
            held.append(got)


class TestRateLimiter:
    def test_admits_up_to_x(self):
        limiter = NotificationRateLimiter(max_active=3)
        assert all(limiter.admit(wreq()) for _ in range(3))
        assert limiter.active_toward(1) == 3

    def test_backlogs_beyond_x(self):
        limiter = NotificationRateLimiter(max_active=1)
        assert limiter.admit(wreq())
        assert not limiter.admit(wreq())
        assert limiter.backlog_depth(1) == 1

    def test_complete_releases_backlog(self):
        limiter = NotificationRateLimiter(max_active=1)
        limiter.admit(wreq())
        held = wreq(size=99)
        limiter.admit(held)
        released = limiter.complete(1)
        assert released is held
        assert limiter.active_toward(1) == 1  # slot transferred

    def test_complete_without_backlog_frees_slot(self):
        limiter = NotificationRateLimiter(max_active=1)
        limiter.admit(wreq())
        assert limiter.complete(1) is None
        assert limiter.active_toward(1) == 0

    def test_complete_without_active_raises(self):
        limiter = NotificationRateLimiter(max_active=1)
        with pytest.raises(HostError):
            limiter.complete(1)

    def test_per_destination_independence(self):
        limiter = NotificationRateLimiter(max_active=1)
        assert limiter.admit(wreq(dst=1))
        assert limiter.admit(wreq(dst=2))

    def test_x_must_be_positive(self):
        with pytest.raises(HostError):
            NotificationRateLimiter(max_active=0)
