"""Wire-transfer units exchanged between EDM hosts and the switch.

The DES stacks move :class:`WireTransfer` bundles rather than individual
66-bit block events — one transfer per /N/, per /G/, per request message,
or per granted data chunk.  Each transfer knows its block count, so link
transmission delays remain bit-faithful (a block carries 64 payload bits
and serializes in one 2.56 ns PCS cycle at 25 GbE).

Grant and data-chunk transfers are the hot kinds — one of each per
granted chunk — so the factories here draw them from a freelist pool;
the consuming NIC hands exhausted transfers back via :data:`recycle`.
A transfer must not be recycled while any scheduled event still
references it.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.core.messages import Grant, MemoryMessage, Notification
from repro.errors import HostError
from repro.phy.encoder import block_count_for_message


class TransferKind(enum.IntEnum):
    """What a wire transfer carries."""

    NOTIFY = 0       # /N/ block
    GRANT = 1        # /G/ block
    REQUEST = 2      # RREQ or RMWREQ as /M*/ blocks
    DATA_CHUNK = 3   # a granted chunk of a WREQ or RRES


#: Plain-int aliases for hot-path dispatch (IntEnum members compare equal).
KIND_NOTIFY = 0
KIND_GRANT = 1
KIND_REQUEST = 2
KIND_DATA_CHUNK = 3


class WireTransfer:
    """One contiguous run of EDM blocks on a link."""

    __slots__ = (
        "kind", "src", "dst", "blocks", "message", "grant", "notification",
        "chunk_bytes", "chunk_offset", "is_final_chunk",
    )

    def __init__(
        self,
        kind: int,
        src: int,
        dst: int,
        blocks: int,
        message: Optional[MemoryMessage] = None,
        grant: Optional[Grant] = None,
        notification: Optional[Notification] = None,
        chunk_bytes: int = 0,
        chunk_offset: int = 0,
        is_final_chunk: bool = False,
    ) -> None:
        if blocks <= 0:
            raise HostError(f"transfer must carry at least one block: {blocks}")
        self.kind = kind
        self.src = src
        self.dst = dst
        self.blocks = blocks
        self.message = message
        self.grant = grant
        self.notification = notification
        self.chunk_bytes = chunk_bytes
        self.chunk_offset = chunk_offset
        self.is_final_chunk = is_final_chunk

    @property
    def wire_bytes(self) -> int:
        """Bytes of link occupancy (64 payload bits per block)."""
        return self.blocks * 8

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WireTransfer({TransferKind(self.kind).name}, src={self.src}, "
            f"dst={self.dst}, blocks={self.blocks})"
        )


#: Message sizes repeat heavily (every chunk of a message class is the same
#: size), so cache the PHY block count per payload size.
_block_cache: Dict[int, int] = {}


def _blocks_for(size_bytes: int) -> int:
    blocks = _block_cache.get(size_bytes)
    if blocks is None:
        blocks = _block_cache[size_bytes] = block_count_for_message(size_bytes)
    return blocks


#: Freelist of recycled transfers for the high-churn kinds.  Transfers are
#: fully re-initialized on reuse, so stale fields never leak between lives.
_pool: List[WireTransfer] = []
_new_transfer = WireTransfer.__new__

#: Returns an exhausted grant/chunk transfer to the pool: the pool's own
#: push, so recycling costs no Python frame.  The consumer first drops the
#: transfer's payload reference (``grant`` or ``message``), so that pooled
#: transfers do not pin messages alive; the factories re-initialize every
#: field on reuse.
recycle = _pool.append


def request_transfer(message: MemoryMessage) -> WireTransfer:
    """Wrap an RREQ/RMWREQ into its /M*/ block run."""
    return WireTransfer(
        kind=KIND_REQUEST,
        src=message.src,
        dst=message.dst,
        blocks=_blocks_for(message.size_bytes),
        message=message,
    )


def notify_transfer(notification: Notification) -> WireTransfer:
    """Wrap an explicit demand notification into its /N/ block."""
    return WireTransfer(
        kind=KIND_NOTIFY,
        src=notification.src,
        dst=notification.dst,
        blocks=1,
        notification=notification,
    )


def grant_transfer(grant: Grant, to_port: int) -> WireTransfer:
    """Wrap a grant into its /G/ block, addressed to the granted sender."""
    if _pool:
        t = _pool.pop()
    else:
        t = _new_transfer(WireTransfer)
    t.kind = KIND_GRANT
    t.src = -1  # grants originate at the switch, not a host port
    t.dst = to_port
    t.blocks = 1
    t.message = None
    t.grant = grant
    t.notification = None
    t.chunk_bytes = 0
    t.chunk_offset = 0
    t.is_final_chunk = False
    return t


def chunk_transfer(
    message: MemoryMessage,
    chunk_bytes: int,
    chunk_offset: int,
    is_final: bool,
) -> WireTransfer:
    """Wrap one granted data chunk of a WREQ/RRES into /M*/ blocks."""
    if chunk_bytes <= 0:
        raise HostError(f"chunk must be positive: {chunk_bytes}")
    if _pool:
        t = _pool.pop()
    else:
        t = _new_transfer(WireTransfer)
    t.kind = KIND_DATA_CHUNK
    t.src = message.src
    t.dst = message.dst
    blocks = _block_cache.get(chunk_bytes)
    t.blocks = _blocks_for(chunk_bytes) if blocks is None else blocks
    t.message = message
    t.grant = None
    t.notification = None
    t.chunk_bytes = chunk_bytes
    t.chunk_offset = chunk_offset
    t.is_final_chunk = is_final
    return t
