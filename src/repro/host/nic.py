"""EDM host network stack as a discrete-event process (§3.2.1).

One :class:`EdmHostNic` per node.  Compute-side operations (read / write /
rmw) enter the message queue, receive a message id, and leave as /M*/ or
/N/ transfers after the published TX cycle counts.  The RX side processes
grants, forwarded requests (at memory nodes, where the forwarded RREQ acts
as the implicit first grant), and data chunks, with the published RX cycle
counts.  Memory nodes own a :class:`~repro.memctrl.MemoryController` and
execute requests atomically.

Completion semantics follow the paper: a read completes when the last RRES
byte reaches the compute node; a write completes when the last WREQ byte
reaches the memory node (writes are one-sided).  A
:class:`CompletionRouter` carries the cross-node callback plumbing the
simulation needs for the latter.

This module is the single hottest model layer in the EDM fabric — every
granted chunk crosses it three times (grant RX, chunk TX, chunk RX) — so
each crossing is one event callback with as few further Python frames as
the model allows.  The RX/TX pipeline stages precompute their cycle
delays, push fire-and-forget entries straight onto the host's lane (no
cancellation handles, no scheduling frame; see :mod:`repro.sim.engine`),
and read the clock from the root simulator.  The state tables are read
and written as their dicts, one dict operation per lookup; their methods
run only to raise.  A landing chunk is absorbed in the event's own frame,
and the pooled wire transfers a NIC consumes go back to the pool without
a helper call.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.clock import PCS_CYCLE_NS
from repro.core.messages import (
    Grant,
    MemoryMessage,
    MessageType,
    Notification,
    make_rmwreq,
    make_rreq,
    make_rres,
    make_wreq,
)
from repro.core.opcodes import RmwOpcode
from repro.errors import HostError
from repro.host import cycles
from repro.host.state import (
    MessageIdAllocator,
    MessageState,
    MessageStateTable,
    NotificationRateLimiter,
)
from repro.host.wire import (
    KIND_DATA_CHUNK,
    KIND_GRANT,
    KIND_REQUEST,
    WireTransfer,
    chunk_transfer,
    notify_transfer,
    recycle,
    request_transfer,
)
from repro.memctrl.controller import MemoryController
from repro.sim.context import SimContext
from repro.sim.engine import MAX_EVENT_TIME, Process, Simulator
from repro.sim.link import Link

CompletionCallback = Callable[["Completion"], None]

#: Shared zero-payload cache: the model never materializes real data, so
#: identical zero buffers are immutable and safe to share across messages.
_ZEROS: Dict[int, bytes] = {}


def _zeros(nbytes: int) -> bytes:
    data = _ZEROS.get(nbytes)
    if data is None:
        data = _ZEROS[nbytes] = bytes(nbytes)
    return data


class Completion:
    """Delivered to the issuing application when an operation finishes."""

    __slots__ = ("message", "completed_at", "latency_ns", "data", "timed_out")

    def __init__(
        self,
        message: MemoryMessage,
        completed_at: float,
        latency_ns: float,
        data: bytes = b"",
        timed_out: bool = False,
    ) -> None:
        self.message = message
        self.completed_at = completed_at
        self.latency_ns = latency_ns
        self.data = data
        self.timed_out = timed_out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Completion(uid={self.message.uid}, at={self.completed_at}, "
            f"lat={self.latency_ns}, timed_out={self.timed_out})"
        )


class CompletionRouter:
    """Routes completion callbacks across nodes (simulation plumbing)."""

    def __init__(self) -> None:
        self._callbacks: Dict[int, Tuple[CompletionCallback, float]] = {}

    def register(self, uid: int, callback: CompletionCallback, created_at: float) -> None:
        if uid in self._callbacks:
            raise HostError(f"completion for message uid {uid} already registered")
        self._callbacks[uid] = (callback, created_at)

    def fire(
        self,
        uid: int,
        message: MemoryMessage,
        now: float,
        data: bytes = b"",
        timed_out: bool = False,
    ) -> None:
        entry = self._callbacks.pop(uid, None)
        if entry is None:
            return  # already completed (e.g. race with a timeout)
        callback, created_at = entry
        callback(
            Completion(
                message=message,
                completed_at=now,
                latency_ns=now - created_at,
                data=data,
                timed_out=timed_out,
            )
        )

    def pending(self) -> int:
        return len(self._callbacks)


class HostConfig:
    """Per-host parameters."""

    __slots__ = ("chunk_bytes", "max_active_per_pair", "cycle_ns", "read_timeout_ns")

    def __init__(
        self,
        chunk_bytes: int = 256,
        max_active_per_pair: int = 3,
        cycle_ns: float = PCS_CYCLE_NS,
        read_timeout_ns: Optional[float] = None,
    ) -> None:
        if read_timeout_ns is not None and not 0 <= read_timeout_ns < MAX_EVENT_TIME:
            raise HostError(
                f"read timeout must be finite and >= 0, got {read_timeout_ns}"
            )
        self.chunk_bytes = chunk_bytes
        self.max_active_per_pair = max_active_per_pair
        self.cycle_ns = cycle_ns
        self.read_timeout_ns = read_timeout_ns


class EdmHostNic(Process):
    """The EDM host NIC: compute API + memory-node service path."""

    def __init__(
        self,
        sim: "Simulator | SimContext",
        node_id: int,
        router: CompletionRouter,
        config: Optional[HostConfig] = None,
    ) -> None:
        super().__init__(sim, f"nic{node_id}")
        if config is None:
            config = HostConfig()
        self.node_id = node_id
        self.router = router
        self._config = config
        self.uplink: Optional[Link] = None
        # Outbound: messages this node initiated, keyed by (dst, own id).
        self.state_table = MessageStateTable()
        # Serving: RRES messages this node generates for peers' requests,
        # keyed by (requester, requester's id) — a separate id namespace.
        self.serving_table = MessageStateTable()
        # The two tables' dicts, read with one dict operation per lookup
        # on the per-chunk path; the tables' methods only raise.
        self._states = self.state_table._entries
        self._serving = self.serving_table._entries
        # RRES grants that reached this node before their forwarded
        # request, keyed like the serving table (see _hold_early_grant).
        self._early_grants: Dict[Tuple[int, int], List[Grant]] = {}
        self.ids = MessageIdAllocator()
        self.limiter = NotificationRateLimiter(config.max_active_per_pair)
        self.controller: Optional[MemoryController] = None
        self.messages_sent = 0
        self.messages_completed = 0
        self._recompute_delays()

    @property
    def config(self) -> HostConfig:
        return self._config

    @config.setter
    def config(self, config: HostConfig) -> None:
        self._config = config
        self._recompute_delays()

    def _recompute_delays(self) -> None:
        # Precomputed pipeline-stage delays (sum of cycle counts x cycle
        # time, identical to computing them per event).
        cycle_ns = self._config.cycle_ns
        self._d_tx_request = cycles.HOST_TX_REQUEST_CYCLES * cycle_ns
        self._d_rx_grant = (
            cycles.HOST_RX_GRANT_CYCLES
            + cycles.HOST_GRANT_QUEUE_READ_CYCLES
            + cycles.HOST_TX_DATA_CYCLES
        ) * cycle_ns
        self._d_rx_rreq = cycles.HOST_RX_RREQ_CYCLES * cycle_ns
        self._d_rx_data = cycles.HOST_RX_DATA_CYCLES * cycle_ns
        self._d_grant_read = (
            cycles.HOST_GRANT_QUEUE_READ_CYCLES + cycles.HOST_TX_DATA_CYCLES
        ) * cycle_ns

    # ------------------------------------------------------------------ #
    # wiring                                                             #
    # ------------------------------------------------------------------ #

    def attach_uplink(self, link: Link) -> None:
        self.uplink = link

    def attach_memory(self, controller: MemoryController) -> None:
        """Make this node a memory node."""
        self.controller = controller

    def _cycles(self, count: int) -> float:
        return count * self._config.cycle_ns

    def _send(self, transfer: WireTransfer, after_ns: float) -> None:
        if self.uplink is None:
            raise HostError(f"node {self.node_id} has no uplink attached")
        self._push((
            self._clock._now + after_ns, 0, next(self._seq), self._transmit, transfer,
        ))

    def _transmit(self, transfer: WireTransfer) -> None:
        self.uplink.send(transfer, transfer.blocks * 8)

    # ------------------------------------------------------------------ #
    # compute-side API (§2.3's four message types)                       #
    # ------------------------------------------------------------------ #

    def read(
        self,
        dst: int,
        address: int,
        nbytes: int,
        on_complete: CompletionCallback,
    ) -> MemoryMessage:
        """Issue a remote read; RREQ doubles as the demand notification."""
        message_id = self.ids.allocate(dst)
        message = make_rreq(
            self.node_id, dst, address, nbytes,
            message_id=message_id, created_at=self._clock._now,
        )
        self._launch_request(message, on_complete)
        return message

    def rmw(
        self,
        dst: int,
        address: int,
        opcode: RmwOpcode,
        args: Tuple[int, ...],
        on_complete: CompletionCallback,
    ) -> MemoryMessage:
        """Issue an atomic read-modify-write (§3.2.1).

        A paper mechanism with its own tests, but no artifact issues it:
        the serving experiment's YCSB-F read-modify-write is a GET then a
        PUT (:meth:`repro.apps.kvstore.RemoteKvStore.read_modify_write`).
        """
        message_id = self.ids.allocate(dst)
        message = make_rmwreq(
            self.node_id, dst, address, opcode, args,
            message_id=message_id, created_at=self._clock._now,
        )
        self._launch_request(message, on_complete)
        return message

    def write(
        self,
        dst: int,
        address: int,
        nbytes: int,
        on_complete: CompletionCallback,
    ) -> MemoryMessage:
        """Issue a remote write; sends an explicit /N/ and awaits grants."""
        message_id = self.ids.allocate(dst)
        now = self._clock._now
        message = make_wreq(
            self.node_id, dst, address, nbytes,
            message_id=message_id, created_at=now,
        )
        self.router.register(message.uid, on_complete, now)
        state = MessageState(message=message, completion_callback=on_complete)
        key = (dst, message_id)
        if self._states.setdefault(key, state) is not state:
            self.state_table.add(*key, state)  # raises: duplicate
        if self.limiter.admit(message):
            self._send_notification(message)
        self.messages_sent += 1
        return message

    def _launch_request(
        self, message: MemoryMessage, on_complete: CompletionCallback
    ) -> None:
        self.router.register(message.uid, on_complete, self._clock._now)
        state = MessageState(message=message, completion_callback=on_complete)
        key = (message.dst, message.message_id)
        if self._states.setdefault(key, state) is not state:
            self.state_table.add(*key, state)  # raises: duplicate
        if self.limiter.admit(message):
            self._send_request(message)
        self.messages_sent += 1
        timeout = self._config.read_timeout_ns
        if timeout is not None:
            # Finite and non-negative (HostConfig checks), so the timer is
            # pushed straight onto the lane.
            self._push((
                self._clock._now + timeout, 0, next(self._seq),
                self._on_read_timeout, message,
            ))

    def _send_request(self, message: MemoryMessage) -> None:
        # 2 cycles: read message queue + create block / write state table.
        self._send(request_transfer(message), self._d_tx_request)

    def _send_notification(self, message: MemoryMessage) -> None:
        notification = Notification(
            src=message.src,
            dst=message.dst,
            message_id=message.message_id,
            size_bytes=message.size_bytes,
            notified_at=self._clock._now,
            message_uid=message.uid,
        )
        self._send(notify_transfer(notification), self._d_tx_request)

    def _on_read_timeout(self, message: MemoryMessage) -> None:
        """Deadlock guard (§3.3): reply NULL if the memory node never does.

        The timer outlives a read that completes first, and the read's
        ``(dst, message_id)`` may by then belong to a later message (ids
        are recycled), so only a state holding this very read is live.
        """
        key = (message.dst, message.message_id)
        state = self._states.get(key)
        if state is None or state.message.uid != message.uid:
            self._clock.discard()  # a stale timer: the read completed
            return
        del self._states[key]
        self.ids.release(message.dst, message.message_id)
        self._release_limiter_slot(message.dst)
        self.router.fire(message.uid, message, self._clock._now, data=b"", timed_out=True)

    # ------------------------------------------------------------------ #
    # RX path                                                            #
    # ------------------------------------------------------------------ #

    def on_wire(self, transfer: WireTransfer) -> None:
        """Entry point for transfers delivered by the switch egress link."""
        kind = transfer.kind
        if kind == KIND_GRANT:
            # A /G/ block: send the granted chunk of a pending WREQ or
            # RRES after RX + grant-queue-read + TX cycles.  The transfer
            # envelope is exhausted here; only the grant payload lives on.
            grant = transfer.grant
            transfer.grant = None
            recycle(transfer)
            self._push((
                self._clock._now + self._d_rx_grant, 0, next(self._seq),
                self._emit_chunk, grant,
            ))
        elif kind == KIND_REQUEST:
            # An RREQ/RMWREQ forwarded by the switch = implicit first grant.
            if self.controller is None:
                raise HostError(
                    f"node {self.node_id} received a "
                    f"{transfer.message.mtype.value} but has no memory "
                    f"controller attached"
                )
            self._push((
                self._clock._now + self._d_rx_rreq, 0, next(self._seq),
                self._service_request, transfer.message,
            ))
        elif kind == KIND_DATA_CHUNK:
            self._push((
                self._clock._now + self._d_rx_data, 0, next(self._seq),
                self._absorb_chunk, transfer,
            ))
        else:
            raise HostError(f"host received unexpected transfer kind {transfer.kind}")

    # -- grants --------------------------------------------------------- #

    def _emit_chunk(self, grant: Grant) -> None:
        table = self._serving if grant.for_response else self._states
        key = (grant.dst, grant.message_id)
        state = table.get(key)
        if state is None:
            self._hold_early_grant(grant)
            return
        message = state.message
        if message.mtype is MessageType.RRES and not state.data_ready:
            # Memory still reading: hold the grant until data is buffered.
            state.pending_grants.append(grant)
            return
        offset = state.bytes_sent
        sent = state.bytes_sent = offset + grant.chunk_bytes
        final = sent >= message.size_bytes
        transfer = chunk_transfer(message, grant.chunk_bytes, offset, final)
        uplink = self.uplink
        if uplink is None:
            raise HostError(f"node {self.node_id} has no uplink attached")
        uplink.send(transfer, transfer.blocks * 8)
        if final:
            # Sender-side state is done; receiver-side completion fires when
            # the last chunk lands.
            del table[key]
            if message.mtype is MessageType.WREQ:
                self.ids.release(grant.dst, grant.message_id)
                # Writes are one-sided (§2.3): once the final chunk is on
                # the wire the sender owes nothing more, so the
                # notification slot toward this memory node frees here —
                # not at remote delivery, which would couple two hosts
                # through a zero-latency callback no real NIC could see.
                self._release_limiter_slot(grant.dst)

    def _hold_early_grant(self, grant: Grant) -> None:
        """Park an RRES /G/ that overtook its forwarded request.

        The switch sends a /G/ in 1 cycle but forwards the buffered RREQ
        in 4, so with a hold window under 3 cycles (64 B chunks) the
        second grant of an RRES leaves first; when other transfers queue
        between the two, the grant lands before :meth:`_service_request`
        has created the serving entry.  It joins that entry's pending
        grants once the request arrives — exactly where it would have
        gone had it arrived a moment later, since the read is in flight.
        """
        if not grant.for_response:
            raise HostError(
                f"no state table entry for {(grant.dst, grant.message_id)}"
            )
        key = (grant.dst, grant.message_id)
        self._early_grants.setdefault(key, []).append(grant)

    # -- forwarded requests (memory node) ------------------------------- #

    def _service_request(self, message: MemoryMessage) -> None:
        controller = self.controller
        assert controller is not None
        now = self._clock._now
        result, done_at = controller.execute_message(message, now)
        rres = make_rres(message, created_at=now)
        state = MessageState(message=rres, data_ready=False)
        key = (rres.dst, rres.message_id)
        if self._serving.setdefault(key, state) is not state:
            self.serving_table.add(*key, state)  # raises: duplicate
        if self._early_grants:
            early = self._early_grants.pop(key, None)
            if early is not None:
                state.pending_grants.extend(early)
        wait = max(0.0, done_at - now)
        self._push((now + wait, 0, next(self._seq), self._rres_data_ready, state))

    def _rres_data_ready(self, state: MessageState) -> None:
        state.data_ready = True
        rres = state.message
        now = self._clock._now
        # The forwarded request acted as the grant for the first chunk
        # (§3.1.1 step 4): emit it now.  4 grant-queue cycles + 3 TX cycles.
        size = rres.size_bytes
        chunk = self._config.chunk_bytes
        grant = Grant(
            src=rres.src,
            dst=rres.dst,
            message_id=rres.message_id,
            chunk_bytes=chunk if chunk < size else size,
            granted_at=now,
            message_uid=rres.uid,
            for_response=True,
        )
        # It leads the grants that piled up while the memory read was in
        # flight (nonzero DRAM latency); they follow it back to back.
        state.pending_grants.insert(0, grant)
        self._push((
            now + self._d_grant_read, 0, next(self._seq), self._emit_pending, state,
        ))

    def _emit_pending(self, state: MessageState) -> None:
        pending = state.pending_grants
        while pending:
            self._emit_chunk(pending.pop(0))

    # -- data chunks ----------------------------------------------------- #

    def _absorb_chunk(self, transfer: WireTransfer) -> None:
        message = transfer.message
        mtype = message.mtype
        if mtype is MessageType.RRES:
            # RRES data landing back at the compute node.
            peer = message.src  # the memory node
            key = (peer, message.message_id)
            state = self._states.get(key)
            # No state: the request already timed out.
            if state is not None:
                received = state.bytes_received = (
                    state.bytes_received + transfer.chunk_bytes
                )
                if received >= message.size_bytes:
                    original = state.message
                    del self._states[key]
                    self.ids.release(peer, message.message_id)
                    self._release_limiter_slot(peer)
                    self.messages_completed += 1
                    self.router.fire(
                        original.uid, original, self._clock._now,
                        data=_zeros(transfer.chunk_bytes),
                    )
        elif mtype is MessageType.WREQ:
            # WREQ data landing at the memory node.
            controller = self.controller
            if controller is None:
                raise HostError(
                    f"node {self.node_id} received WREQ data but has no memory"
                )
            if transfer.is_final_chunk:
                now = self._clock._now
                controller.write(message.address, _zeros(message.size_bytes), now)
                self.messages_completed += 1
                self.router.fire(message.uid, message, now)
        else:
            raise HostError(f"unexpected data chunk of type {message.mtype.value}")
        transfer.message = None
        recycle(transfer)

    # -- rate limiter plumbing ------------------------------------------- #

    def _release_limiter_slot(self, dst: int) -> None:
        backlogged = self.limiter.complete(dst)
        if backlogged is None:
            return
        if backlogged.mtype is MessageType.WREQ:
            self._send_notification(backlogged)
        else:
            self._send_request(backlogged)
