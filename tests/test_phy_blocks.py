"""Tests for 66-bit PHY block model: formats and classification."""

import pytest
from phy_reference import trailing_bytes

from repro.errors import PhyError
from repro.phy.blocks import (
    EDM_TYPES,
    SYNC_CONTROL,
    SYNC_DATA,
    BlockType,
    PhyBlock,
    data_block,
    grant_block,
    idle_block,
    mem_single_block,
    notify_block,
    start_block,
    term_block,
)


class TestFormats:
    def test_data_block_is_8_bytes(self):
        block = data_block(b"\x01" * 8)
        assert block.is_data and len(block.payload) == 8

    def test_data_block_wrong_size_rejected(self):
        with pytest.raises(PhyError):
            data_block(b"\x01" * 7)

    def test_control_block_payload_capped_at_7(self):
        with pytest.raises(PhyError):
            PhyBlock(sync=SYNC_CONTROL, block_type=BlockType.IDLE, payload=b"x" * 8)

    def test_data_block_has_no_type(self):
        with pytest.raises(PhyError):
            PhyBlock(sync=SYNC_DATA, block_type=BlockType.IDLE, payload=b"x" * 8)

    def test_invalid_sync_rejected(self):
        with pytest.raises(PhyError):
            PhyBlock(sync=0b11, payload=b"x" * 8)

    def test_idle_block_is_all_zero_payload(self):
        # §3.2: "idle characters (all 0s by default)".
        assert idle_block().payload == b"\x00" * 7

    def test_term_blocks_carry_trailing_count(self):
        for k in range(8):
            block = term_block(b"z" * k)
            assert trailing_bytes(block) == k

    def test_start_block_needs_exactly_7(self):
        with pytest.raises(PhyError):
            start_block(b"abc")


class TestEdmBlocks:
    def test_edm_types_are_distinct_from_standard(self):
        standard = {
            BlockType.IDLE, BlockType.START, *[
                t for t in BlockType if t.name.startswith("TERM")
            ]
        }
        assert not (EDM_TYPES & standard)

    def test_mst_carries_whole_small_message(self):
        # A message <= 7 B fits in one block vs 9 blocks for a MAC frame.
        block = mem_single_block(b"\x01\x02\x03")
        assert block.is_edm and not block.is_data

    def test_md_block_tagged_memory(self):
        block = data_block(b"\x01" * 8, memory=True)
        assert block.is_edm

    def test_plain_data_block_is_not_edm(self):
        assert not data_block(b"\x01" * 8).is_edm

    def test_memory_term_block(self):
        block = term_block(b"xy", memory=True)
        assert block.block_type == BlockType.MEM_TERM

    def test_notify_and_grant_blocks(self):
        assert notify_block(b"12345").block_type == BlockType.NOTIFY
        assert grant_block(b"12345").block_type == BlockType.GRANT

    def test_trailing_bytes_on_non_term_raises(self):
        with pytest.raises(PhyError):
            trailing_bytes(idle_block())
