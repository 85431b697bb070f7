"""Byte-addressable DRAM model with DDR4-flavoured timing.

The memory node's substrate: a numpy byte store plus an access-latency
model.  Timing follows the figures the paper leans on — intra-server DRAM
access in the tens-to-hundreds of ns (§1), ~82 ns for a local DDR4 access
(Figure 7), and 64 B burst granularity (§3.1.4).

The byte store is a flat ``uint8`` array materialized lazily on the first
nonzero write: fabric runs carry sizes rather than payloads, so most
simulations never allocate it at all, while payload-bearing users (the
KV store) get vectorized slice reads/writes instead of per-byte loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.clock import DDR4_BURST_BYTES, LOCAL_DRAM_LATENCY_NS
from repro.errors import MemoryError_


@dataclass(frozen=True)
class DramTiming:
    """Simplified DDR4 access-latency model.

    ``row_hit_ns`` approximates CL+data; ``row_miss_ns`` adds precharge +
    activate.  ``bandwidth_gbps`` caps sustained streaming (the paper's
    U200 DIMMs total 77 GB/s = 616 Gbps; a single channel is modelled).
    """

    row_hit_ns: float = 46.0
    row_miss_ns: float = LOCAL_DRAM_LATENCY_NS
    bandwidth_gbps: float = 154.0  # one DDR4-2400 x64 channel ≈ 19.2 GB/s... scaled
    row_bytes: int = 8192

    def access_latency_ns(self, address: int, last_row: int) -> float:
        """Latency of a burst at ``address`` given the last open row."""
        row = address // self.row_bytes
        return self.row_hit_ns if row == last_row else self.row_miss_ns

    def streaming_ns_per_burst(self) -> float:
        """Back-to-back burst spacing when streaming (bandwidth-bound)."""
        return DDR4_BURST_BYTES * 8.0 / self.bandwidth_gbps


class Dram:
    """Byte-addressable memory with open-row tracking.

    Reads of unwritten bytes return zeros, like freshly-initialized DRAM in
    the model's idealization.
    """

    def __init__(self, size_bytes: int, timing: DramTiming = DramTiming()) -> None:
        if size_bytes <= 0:
            raise MemoryError_(f"memory size must be positive: {size_bytes}")
        self.size_bytes = size_bytes
        self.timing = timing
        # Lazily materialized numpy byte store; None means all-zero.
        self._arr: "np.ndarray | None" = None
        self._last_row = -1
        self.reads = 0
        self.writes = 0
        # Timing constants hoisted out of the per-access path (identical
        # values to querying the frozen timing dataclass each access).
        self._row_bytes = timing.row_bytes
        self._row_hit = timing.row_hit_ns
        self._row_miss = timing.row_miss_ns
        self._burst_ns = timing.streaming_ns_per_burst()
        self._zeros_cache: dict = {}

    def _check_range(self, address: int, length: int) -> None:
        if address < 0 or length < 0 or address + length > self.size_bytes:
            raise MemoryError_(
                f"access [{address}, {address + length}) outside "
                f"[0, {self.size_bytes})"
            )

    def _zeros(self, length: int) -> bytes:
        data = self._zeros_cache.get(length)
        if data is None:
            data = self._zeros_cache[length] = bytes(length)
        return data

    def read(self, address: int, length: int) -> "tuple[bytes, float]":
        """Read ``length`` bytes; returns (data, latency_ns)."""
        if address < 0 or length < 0 or address + length > self.size_bytes:
            self._check_range(address, length)  # raises
        arr = self._arr
        if arr is None:
            # Nothing ever written (fabric runs carry sizes, not payloads):
            # unwritten memory reads as zeros.
            data = self._zeros(length)
        else:
            data = arr[address:address + length].tobytes()
        latency = self._access_latency(address, length)
        self.reads += 1
        return data, latency

    def write(self, address: int, data: bytes) -> float:
        """Write ``data``; returns latency_ns."""
        length = len(data)
        if address < 0 or address + length > self.size_bytes:
            self._check_range(address, length)  # raises
        arr = self._arr
        if arr is None and any(data):
            # First real payload: materialize the backing array (zero
            # writes into untouched memory are a no-op, reads default to
            # zero either way).
            arr = self._arr = np.zeros(self.size_bytes, dtype=np.uint8)
        if arr is not None and length:
            arr[address:address + length] = np.frombuffer(data, dtype=np.uint8)
        latency = self._access_latency(address, length)
        self.writes += 1
        return latency

    def _access_latency(self, address: int, length: int) -> float:
        row = address // self._row_bytes
        first = self._row_hit if row == self._last_row else self._row_miss
        last = length - 1
        if last < 0:
            last = 0
        self._last_row = (address + last) // self._row_bytes
        extra_bursts = -(-length // DDR4_BURST_BYTES) - 1
        if extra_bursts <= 0:
            return first
        return first + extra_bursts * self._burst_ns

    def read_word(self, address: int) -> "tuple[int, float]":
        """Read one 64-bit word (the RMW granule)."""
        data, latency = self.read(address, 8)
        return int.from_bytes(data, "big"), latency

    def write_word(self, address: int, value: int) -> float:
        if not 0 <= value < (1 << 64):
            raise MemoryError_(f"word out of 64-bit range: {value:#x}")
        return self.write(address, value.to_bytes(8, "big"))
