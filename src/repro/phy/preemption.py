"""Intra-frame preemption (§3.2.3) — the first for Ethernet.

A multiplexer at the encoder output selects, every 66-bit block cycle,
between the memory-block queue (/N/, /G/, /M*/) and the queued
non-memory frame blocks, alternating between the two classes (fair
interleave).  A memory message, once started, is transmitted
contiguously — preemption suspends *frames*, never an in-flight memory
message.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.errors import PhyError
from repro.phy.blocks import PhyBlock


class PreemptiveTxMux:
    """The TX-side 66-bit block multiplexer.

    Feed it memory blocks (:meth:`offer_memory`) and frame blocks
    (:meth:`offer_frame`), then :meth:`drain` to obtain the wire stream.
    Without preemption (``preemption_enabled=False``) memory blocks wait
    for the entire in-flight frame — the MAC-layer behaviour the paper's
    limitation 3 describes.
    """

    def __init__(self, preemption_enabled: bool = True) -> None:
        self.preemption_enabled = preemption_enabled
        self._seq = 0
        self._mem_queue: Deque[Tuple[int, List[PhyBlock]]] = deque()
        self._frame_queue: Deque[Tuple[int, List[PhyBlock]]] = deque()
        self._current_frame: Deque[PhyBlock] = deque()
        self._current_mem: Deque[PhyBlock] = deque()
        self._last_was_memory = False

    def offer_memory(self, blocks: List[PhyBlock]) -> None:
        """Enqueue one memory message (or /N/ or /G/) as a block run."""
        if not blocks:
            raise PhyError("empty memory block run")
        self._mem_queue.append((self._seq, list(blocks)))
        self._seq += 1

    def offer_frame(self, blocks: List[PhyBlock]) -> None:
        """Enqueue one non-memory Ethernet frame's blocks."""
        if not blocks:
            raise PhyError("empty frame block run")
        self._frame_queue.append((self._seq, list(blocks)))
        self._seq += 1

    def _choose_memory_first(self) -> bool:
        have_mem = bool(self._current_mem or self._mem_queue)
        have_frame = bool(self._current_frame or self._frame_queue)
        if not have_mem:
            return False
        if not have_frame:
            return True
        # A memory message in flight is never interrupted (contiguity).
        if self._current_mem:
            return True
        if not self.preemption_enabled:
            # MAC-style behaviour: no preemption mid-frame, and runs leave
            # in arrival order — an earlier-offered frame transmits fully
            # before a later memory message gets the wire.
            if self._current_frame:
                return False
            return self._mem_queue[0][0] < self._frame_queue[0][0]
        # Fair: alternate between the two classes.
        return not self._last_was_memory

    def drain(self) -> List[PhyBlock]:
        """Run the mux until both queues empty; block ``i`` leaves in cycle ``i``."""
        wire: List[PhyBlock] = []
        while self._current_mem or self._mem_queue or self._current_frame or self._frame_queue:
            self._last_was_memory = self._choose_memory_first()
            if self._last_was_memory:
                current, queue = self._current_mem, self._mem_queue
            else:
                current, queue = self._current_frame, self._frame_queue
            if not current:
                current.extend(queue.popleft()[1])
            wire.append(current.popleft())
        return wire


def memory_latency_blocks(wire: List[PhyBlock]) -> Optional[int]:
    """Cycle at which the last memory block left the mux (None if none did)."""
    last = None
    for cycle, block in enumerate(wire):
        if block.is_edm:
            last = cycle
    return last
