"""EDM host network stack: NIC, state tables, rate limiting, wire units."""

from repro.host.nic import (
    Completion,
    CompletionRouter,
    EdmHostNic,
    HostConfig,
)
from repro.host.state import (
    MessageIdAllocator,
    MessageState,
    MessageStateTable,
    NotificationRateLimiter,
)
from repro.host.wire import (
    TransferKind,
    WireTransfer,
    chunk_transfer,
    grant_transfer,
    notify_transfer,
    request_transfer,
)

__all__ = [
    "Completion",
    "CompletionRouter",
    "EdmHostNic",
    "HostConfig",
    "MessageIdAllocator",
    "MessageState",
    "MessageStateTable",
    "NotificationRateLimiter",
    "TransferKind",
    "WireTransfer",
    "chunk_transfer",
    "grant_transfer",
    "notify_transfer",
    "request_transfer",
]
