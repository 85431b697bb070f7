"""66-bit PHY block model (§3.2).

In 10/25/40/100+ GbE the PCS encoder emits 66-bit blocks: a 2-bit sync
header ("10" = data, "01" = control) followed by 64 payload bits.  Control
blocks carry an 8-bit block type and 56 bits of payload.  An Ethernet frame
is /S/ followed by /D/ blocks and a terminating /T/ block; idle /E/ blocks
make up the inter-frame gap.  Ethernet enforces at least 9 blocks per frame
(64 B minimum frame).

EDM introduces the /M*/ family to carry memory messages natively in the
PCS: /MS/ starts a memory message, /MD/ carries its data, /MT/ ends it, and
/MST/ holds an entire message in a single block.  /N/ and /G/ carry demand
notifications and grants.  EDM block types use unused 802.3 block-type code
points so they never collide with standard traffic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import PhyError

#: Sync header values (2 bits on the wire).
SYNC_DATA = 0b10
SYNC_CONTROL = 0b01

#: Payload bytes carried by a data block.
DATA_BLOCK_PAYLOAD_BYTES = 8

#: Payload bytes carried by a control block after the 8-bit type field.
CONTROL_BLOCK_PAYLOAD_BYTES = 7

#: Minimum PHY blocks per Ethernet frame: /S/, 7 /D/, /T/ (§3.2).
MIN_BLOCKS_PER_FRAME = 9


class BlockType(enum.IntEnum):
    """Block type code points.

    Standard 802.3 types use their real values; EDM types are assigned
    unused code points (any value outside 802.3's defined set works — the
    paper only requires uniqueness).
    """

    # -- standard 802.3 64b/66b block types ---------------------------------
    IDLE = 0x1E           # /E/  — all-idle control block (makes up the IFG)
    START = 0x78          # /S/  — start of frame, carries 7 data bytes
    TERM_0 = 0x87         # /T0/ — terminate with 0 trailing data bytes
    TERM_1 = 0x99
    TERM_2 = 0xAA
    TERM_3 = 0xB4
    TERM_4 = 0xCC
    TERM_5 = 0xD2
    TERM_6 = 0xE1
    TERM_7 = 0xFF         # /T7/ — terminate with 7 trailing data bytes
    # -- EDM memory-traffic block types (§3.2, unused code points) ----------
    MEM_START = 0x2A      # /MS/  — start of a memory message (7 data bytes)
    MEM_TERM = 0x3C       # /MT/  — end of a memory message
    MEM_SINGLE = 0x5A     # /MST/ — whole memory message in one block
    NOTIFY = 0x66         # /N/   — demand notification
    GRANT = 0x4B          # /G/   — grant


#: The /T0/../T7/ family indexed by trailing byte count.
TERM_TYPES = (
    BlockType.TERM_0,
    BlockType.TERM_1,
    BlockType.TERM_2,
    BlockType.TERM_3,
    BlockType.TERM_4,
    BlockType.TERM_5,
    BlockType.TERM_6,
    BlockType.TERM_7,
)

#: Block types introduced by EDM (carry memory traffic or scheduler control).
EDM_TYPES = frozenset(
    {
        BlockType.MEM_START,
        BlockType.MEM_TERM,
        BlockType.MEM_SINGLE,
        BlockType.NOTIFY,
        BlockType.GRANT,
    }
)


@dataclass(frozen=True)
class PhyBlock:
    """One 66-bit PHY block.

    A data block has ``sync == SYNC_DATA``, no type, and exactly 8 payload
    bytes.  A control block has ``sync == SYNC_CONTROL``, a
    :class:`BlockType`, and up to 7 payload bytes (padded with zeros on the
    wire).  ``is_memory`` tags data blocks that belong to a memory message
    (/MD/): on the wire an /MD/ block is bit-identical to /D/ — the RX
    demultiplexer distinguishes them statefully between /MS/ and /MT/.
    """

    sync: int
    block_type: Optional[BlockType] = None
    payload: bytes = b""
    is_memory: bool = False

    def __post_init__(self) -> None:
        if self.sync == SYNC_DATA:
            if self.block_type is not None:
                raise PhyError("data blocks carry no block type")
            if len(self.payload) != DATA_BLOCK_PAYLOAD_BYTES:
                raise PhyError(
                    f"data block payload must be 8 bytes, got {len(self.payload)}"
                )
        elif self.sync == SYNC_CONTROL:
            if self.block_type is None:
                raise PhyError("control blocks must carry a block type")
            if len(self.payload) > CONTROL_BLOCK_PAYLOAD_BYTES:
                raise PhyError(
                    f"control block payload exceeds 7 bytes: {len(self.payload)}"
                )
        else:
            raise PhyError(f"invalid sync header: {self.sync:#04b}")

    # -- classification ------------------------------------------------ #

    @property
    def is_data(self) -> bool:
        return self.sync == SYNC_DATA

    @property
    def is_edm(self) -> bool:
        """Whether this block belongs to EDM's parallel memory pipeline."""
        if self.is_data:
            return self.is_memory
        return self.block_type in EDM_TYPES


# -- constructors -------------------------------------------------------- #


def idle_block() -> PhyBlock:
    """/E/ — an all-zero idle control block (the IFG filler)."""
    return PhyBlock(sync=SYNC_CONTROL, block_type=BlockType.IDLE, payload=b"\x00" * 7)


def start_block(first7: bytes) -> PhyBlock:
    """/S/ — frame start carrying the first 7 frame bytes."""
    if len(first7) != 7:
        raise PhyError(f"/S/ carries exactly 7 bytes, got {len(first7)}")
    return PhyBlock(sync=SYNC_CONTROL, block_type=BlockType.START, payload=first7)


def data_block(chunk: bytes, *, memory: bool = False) -> PhyBlock:
    """/D/ (or /MD/ when ``memory``) carrying 8 bytes."""
    return PhyBlock(sync=SYNC_DATA, payload=chunk, is_memory=memory)


def term_block(trailing: bytes, *, memory: bool = False) -> PhyBlock:
    """/T_k/ (or /MT/ for memory messages) carrying the final k<=7 bytes."""
    if len(trailing) > 7:
        raise PhyError(f"terminate block carries at most 7 bytes: {len(trailing)}")
    if memory:
        return PhyBlock(
            sync=SYNC_CONTROL, block_type=BlockType.MEM_TERM, payload=trailing
        )
    return PhyBlock(
        sync=SYNC_CONTROL,
        block_type=TERM_TYPES[len(trailing)],
        payload=trailing,
    )


def mem_start_block(first7: bytes) -> PhyBlock:
    """/MS/ — memory message start carrying up to 7 bytes."""
    if len(first7) > 7:
        raise PhyError(f"/MS/ carries at most 7 bytes, got {len(first7)}")
    return PhyBlock(sync=SYNC_CONTROL, block_type=BlockType.MEM_START, payload=first7)


def mem_single_block(payload: bytes) -> PhyBlock:
    """/MST/ — an entire memory message in one block (<=7 bytes).

    This is what lets an 8 B RREQ (whose 5 B header rides alongside) occupy
    a single 66-bit block instead of a 64 B minimum Ethernet frame.
    """
    if len(payload) > 7:
        raise PhyError(f"/MST/ carries at most 7 bytes, got {len(payload)}")
    return PhyBlock(sync=SYNC_CONTROL, block_type=BlockType.MEM_SINGLE, payload=payload)


def notify_block(payload: bytes) -> PhyBlock:
    """/N/ — demand notification (5-byte control payload, §3.1.4)."""
    if len(payload) > 7:
        raise PhyError(f"/N/ payload exceeds 7 bytes: {len(payload)}")
    return PhyBlock(sync=SYNC_CONTROL, block_type=BlockType.NOTIFY, payload=payload)


def grant_block(payload: bytes) -> PhyBlock:
    """/G/ — grant (5-byte control payload, §3.1.4)."""
    if len(payload) > 7:
        raise PhyError(f"/G/ payload exceeds 7 bytes: {len(payload)}")
    return PhyBlock(sync=SYNC_CONTROL, block_type=BlockType.GRANT, payload=payload)
