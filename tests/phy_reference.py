"""PCS receive-side demultiplexer and decoder (§3.2): the encoder's oracle.

EDM RX walks the incoming 66-bit block stream, *extracts* memory traffic
(/M*/, /N/, /G/ blocks) for the EDM pipeline, and *replaces* it with idle
characters before handing the remainder to the standard decoder, keeping
the standard stack unaware that its IFG was borrowed.

Nothing in the simulator receives blocks, so this model lives here: it
decodes what ``repro.phy.encoder`` and ``PreemptiveTxMux`` emit, and its
reassembled block counts check ``block_count_for_message``.
"""

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import PhyError
from repro.phy.blocks import TERM_TYPES, BlockType, PhyBlock, idle_block


def trailing_bytes(block: PhyBlock) -> int:
    """Data bytes carried by a /T*/ block."""
    if block.block_type not in TERM_TYPES:
        raise PhyError(f"not a terminate block: {block.block_type!r}")
    return TERM_TYPES.index(block.block_type)


@dataclass
class ExtractedMessage:
    """A memory message reassembled from /M*/ blocks."""

    payload: bytes
    block_count: int


@dataclass
class DemuxResult:
    """Output of one demultiplexing pass over a block stream."""

    memory_messages: List[ExtractedMessage] = field(default_factory=list)
    notifications: List[bytes] = field(default_factory=list)
    grants: List[bytes] = field(default_factory=list)
    ethernet_blocks: List[PhyBlock] = field(default_factory=list)


class EdmRxDemux:
    """Stateful RX demultiplexer.

    Between an /MS/ and its /MT/, data blocks belong to the in-flight
    memory message even though they are bit-identical to /D/ blocks; the
    demux supplies that context.  The TX mux never interrupts a memory
    message once its /MS/ is on the wire, so every data block between
    /MS/ and /MT/ is /MD/, while a frame's blocks may straddle a whole
    memory run.
    """

    def __init__(self) -> None:
        self._mem_buffer: Optional[bytearray] = None
        self._mem_blocks = 0

    def push(self, block: PhyBlock, result: DemuxResult) -> None:
        """Process one received block into ``result``."""
        kind = block.block_type
        if kind == BlockType.MEM_SINGLE:
            # The block keeps its unpadded payload, so the bytes come out
            # verbatim: stripping trailing zeros would corrupt payloads
            # whose real data ends in \x00.
            result.memory_messages.append(
                ExtractedMessage(payload=bytes(block.payload), block_count=1)
            )
        elif kind == BlockType.MEM_START:
            if self._mem_buffer is not None:
                raise PhyError("nested /MS/ without intervening /MT/")
            self._mem_buffer = bytearray(block.payload)
            self._mem_blocks = 1
        elif kind == BlockType.MEM_TERM:
            if self._mem_buffer is None:
                raise PhyError("/MT/ without a preceding /MS/")
            self._mem_buffer.extend(block.payload)
            result.memory_messages.append(
                ExtractedMessage(
                    payload=bytes(self._mem_buffer), block_count=self._mem_blocks + 1
                )
            )
            self._mem_buffer = None
        elif kind == BlockType.NOTIFY:
            result.notifications.append(bytes(block.payload))
        elif kind == BlockType.GRANT:
            result.grants.append(bytes(block.payload))
        elif block.is_data and self._mem_buffer is not None:
            self._mem_buffer.extend(block.payload)
            self._mem_blocks += 1
        else:
            result.ethernet_blocks.append(block)
            return
        result.ethernet_blocks.append(idle_block())

    def demux(self, blocks: List[PhyBlock]) -> DemuxResult:
        """Demultiplex a whole stream at once."""
        result = DemuxResult()
        for block in blocks:
            self.push(block, result)
        return result


def decode_frame(blocks: List[PhyBlock]) -> bytes:
    """Reassemble a MAC frame from its /S/ + /D/* + /T_k/ blocks.

    Idle blocks surrounding the frame are skipped; the function expects
    exactly one frame in the slice.
    """
    data = bytearray()
    started = False
    for block in blocks:
        if block.block_type == BlockType.IDLE:
            continue
        if block.block_type == BlockType.START:
            if started:
                raise PhyError("second /S/ before /T/ while decoding a frame")
            started = True
            data.extend(block.payload)
            continue
        if not started:
            raise PhyError(f"unexpected block before /S/: {block.block_type!r}")
        if block.is_data:
            data.extend(block.payload)
            continue
        if block.block_type in TERM_TYPES:
            data.extend(block.payload[: trailing_bytes(block)])
            return bytes(data)
        raise PhyError(f"unexpected control block inside frame: {block.block_type!r}")
    raise PhyError("block stream ended before /T/")
