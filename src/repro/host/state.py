"""Host-side state: message state table, rate limiter and id allocator (§3.2.1).

* The **message state table**, indexed by (destination, message id), holds
  the local buffer address for pending reads and the (remote address, data
  buffer) pair for pending writes/responses.
* The **rate limiter** enforces at most X active notifications per
  destination, which is what bounds the switch's per-port notification
  queues to X*N entries (§3.1.2).
* The **message id allocator** hands out the 8-bit per-destination ids.

All of this state grows with the traffic, not with cluster size times the
id space: a peer a node has never talked to costs nothing, and one it has
costs an id watermark until it first releases an id.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.core.messages import MemoryMessage
from repro.errors import HostError

StateKey = Tuple[int, int]  # (peer node id, message id)


class MessageState:
    """One entry of the message state table."""

    __slots__ = (
        "message", "local_address", "data_ready", "bytes_sent",
        "bytes_received", "completion_callback", "pending_grants",
    )

    def __init__(
        self,
        message: MemoryMessage,
        local_address: int = 0,
        data_ready: bool = False,
        bytes_sent: int = 0,
        bytes_received: int = 0,
        completion_callback: Optional[Callable[..., None]] = None,
        pending_grants: Optional[List[object]] = None,
    ) -> None:
        self.message = message
        self.local_address = local_address
        self.data_ready = data_ready
        self.bytes_sent = bytes_sent
        self.bytes_received = bytes_received
        self.completion_callback = completion_callback
        self.pending_grants = [] if pending_grants is None else pending_grants


class MessageStateTable:
    """Table indexed by <message destination, message id> (§3.2.1)."""

    def __init__(self) -> None:
        self._entries: Dict[StateKey, MessageState] = {}

    def add(self, peer: int, message_id: int, state: MessageState) -> None:
        key = (peer, message_id)
        if key in self._entries:
            raise HostError(f"state table already holds an entry for {key}")
        self._entries[key] = state

    def get(self, peer: int, message_id: int) -> MessageState:
        key = (peer, message_id)
        try:
            return self._entries[key]
        except KeyError as exc:
            raise HostError(f"no state table entry for {key}") from exc

    def find(self, peer: int, message_id: int) -> Optional[MessageState]:
        """Like :meth:`get` but returns None on a miss (hot-path lookup)."""
        return self._entries.get((peer, message_id))

    def remove(self, peer: int, message_id: int) -> MessageState:
        key = (peer, message_id)
        try:
            return self._entries.pop(key)
        except KeyError as exc:
            raise HostError(f"no state table entry for {key}") from exc

    def __len__(self) -> int:
        return len(self._entries)


class MessageIdAllocator:
    """Allocates the 8-bit per-destination message ids and recycles them.

    Ids toward a peer come fresh in ascending order until the space is
    used up, then recycled in release order.  A peer costs one fresh-id
    watermark until its first release creates its recycled-id list; only
    ids in flight are held in the outstanding set.
    """

    def __init__(self, id_space: int = 256) -> None:
        self._fresh: Dict[int, int] = {}  # peer -> next never-used id
        self._recycled: Dict[int, List[int]] = {}  # release order
        self._outstanding: Set[StateKey] = set()
        self._id_space = id_space

    def allocate(self, peer: int) -> int:
        message_id = self._fresh.get(peer, 0)
        if message_id < self._id_space:
            self._fresh[peer] = message_id + 1
        else:
            recycled = self._recycled.get(peer)
            if not recycled:
                raise HostError(
                    f"message-id space exhausted toward peer {peer}; "
                    f"complete some messages before issuing more"
                )
            message_id = recycled.pop(0)
        self._outstanding.add((peer, message_id))
        return message_id

    def release(self, peer: int, message_id: int) -> None:
        try:
            self._outstanding.remove((peer, message_id))
        except KeyError:
            raise HostError(
                f"message id {message_id} toward peer {peer} is not outstanding"
            ) from None
        recycled = self._recycled.get(peer)
        if recycled is None:
            self._recycled[peer] = [message_id]
        else:
            recycled.append(message_id)


class NotificationRateLimiter:
    """Caps active notifications per destination at X (§3.1.2).

    Messages beyond the cap wait in a per-destination backlog and are
    released as earlier notifications complete.
    """

    def __init__(self, max_active: int = 3) -> None:
        if max_active <= 0:
            raise HostError(f"X must be positive, got {max_active}")
        self.max_active = max_active
        self._active: Dict[int, int] = {}
        self._backlog: Dict[int, Deque[MemoryMessage]] = {}

    def active_toward(self, dst: int) -> int:
        return self._active.get(dst, 0)

    def backlog_depth(self, dst: int) -> int:
        return len(self._backlog.get(dst, ()))

    def admit(self, message: MemoryMessage) -> bool:
        """Try to admit a message; False means it was backlogged."""
        dst = message.dst
        active = self._active.get(dst, 0)
        if active < self.max_active:
            self._active[dst] = active + 1
            return True
        self._backlog.setdefault(dst, deque()).append(message)
        return False

    def complete(self, dst: int) -> Optional[MemoryMessage]:
        """Mark one active notification toward ``dst`` done.

        Returns a backlogged message that may now be admitted (already
        counted as active), or None.
        """
        active = self._active.get(dst, 0)
        if active <= 0:
            raise HostError(f"no active notifications toward {dst} to complete")
        backlog = self._backlog.get(dst)
        if backlog:
            return backlog.popleft()  # slot transfers to the backlogged message
        self._active[dst] = active - 1
        return None
