"""Memory controller: executes remote requests against the DRAM substrate.

At the memory node, the NIC hands RREQ/WREQ/RMWREQ messages to this
controller.  RMW operations run atomically (§3.2.1): read, modify per the
opcode, write back — never preempted by other incoming requests.  The
controller serializes accesses like a single DDR4 channel would, exposing
the completion time of each operation.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.messages import MemoryMessage, MessageType
from repro.core.opcodes import RmwOpcode, RmwResult, execute
from repro.errors import MemoryError_
from repro.memctrl.dram import Dram, DramTiming


#: Zero payloads are immutable and reused across messages (the model never
#: materializes real data on the fabric path).
_ZEROS: dict = {}


def _zeros(nbytes: int) -> bytes:
    data = _ZEROS.get(nbytes)
    if data is None:
        data = _ZEROS[nbytes] = bytes(nbytes)
    return data


class MemoryOperationResult:
    """Outcome of one controller operation."""

    __slots__ = ("data", "latency_ns", "rmw")

    def __init__(
        self, data: bytes, latency_ns: float, rmw: Optional[RmwResult] = None
    ) -> None:
        self.data = data
        self.latency_ns = latency_ns
        self.rmw = rmw


class MemoryController:
    """A single-channel memory controller with atomic RMW support.

    The controller tracks when the channel frees up (``busy_until``) so a
    simulation can account for controller queuing under load; callers pass
    the current time and receive the operation's completion time.
    """

    def __init__(self, size_bytes: int, timing: DramTiming = DramTiming()) -> None:
        self.dram = Dram(size_bytes, timing)
        self.busy_until = 0.0
        self.operations = 0

    def _start_time(self, now: float) -> float:
        return max(now, self.busy_until)

    def read(self, address: int, length: int, now: float = 0.0) -> Tuple[MemoryOperationResult, float]:
        """Read; returns (result, completion_time)."""
        busy_until = self.busy_until
        start = busy_until if busy_until > now else now
        data, latency = self.dram.read(address, length)
        completion = start + latency
        self.busy_until = completion
        self.operations += 1
        return MemoryOperationResult(data=data, latency_ns=latency), completion

    def write(self, address: int, data: bytes, now: float = 0.0) -> Tuple[MemoryOperationResult, float]:
        """Write; returns (result, completion_time)."""
        busy_until = self.busy_until
        start = busy_until if busy_until > now else now
        latency = self.dram.write(address, data)
        completion = start + latency
        self.busy_until = completion
        self.operations += 1
        return MemoryOperationResult(data=b"", latency_ns=latency), completion

    def read_modify_write(
        self,
        address: int,
        opcode: RmwOpcode,
        args: Tuple[int, ...],
        now: float = 0.0,
    ) -> Tuple[MemoryOperationResult, float]:
        """Atomic RMW (§3.2.1): read + modify + conditional write-back.

        The three steps occupy the channel without preemption; the write
        back is skipped when a CAS fails, saving its latency.  No artifact
        reaches this path: YCSB-F issues a GET then a PUT, not a native
        RMW.
        """
        start = self._start_time(now)
        old_value, read_latency = self.dram.read_word(address)
        result = execute(opcode, old_value, args)
        total = read_latency
        if result.new_value != old_value or (result.swapped and opcode == RmwOpcode.SWAP):
            total += self.dram.write_word(address, result.new_value)
        completion = start + total
        self.busy_until = completion
        self.operations += 1
        op = MemoryOperationResult(
            data=result.response.to_bytes(8, "big"),
            latency_ns=total,
            rmw=result,
        )
        return op, completion

    def execute_message(
        self, message: MemoryMessage, now: float = 0.0
    ) -> Tuple[MemoryOperationResult, float]:
        """Dispatch a remote-memory message to the right operation."""
        mtype = message.mtype
        if mtype is MessageType.RREQ:
            return self.read(message.address, message.read_bytes, now)
        if mtype is MessageType.WREQ:
            # The simulation carries sizes, not real payloads; write zeros of
            # the declared length when no payload bytes accompany the model.
            return self.write(message.address, _zeros(message.size_bytes), now)
        if mtype is MessageType.RMWREQ:
            assert message.opcode is not None
            return self.read_modify_write(
                message.address, message.opcode, message.rmw_args, now
            )
        raise MemoryError_(f"controller cannot execute a {message.mtype.value}")
