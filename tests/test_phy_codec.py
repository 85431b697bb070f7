"""Tests for the PCS encoder (§3.2), decoded by the RX demux in ``phy_reference``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from phy_reference import EdmRxDemux, decode_frame, trailing_bytes

from repro.errors import PhyError
from repro.phy.blocks import MIN_BLOCKS_PER_FRAME, BlockType
from repro.phy.encoder import (
    block_count_for_frame,
    block_count_for_message,
    edm_bandwidth_efficiency,
    encode_frame,
    encode_grant,
    encode_memory_message,
    encode_notification,
    mac_bandwidth_efficiency,
)


class TestFrameCodec:
    def test_min_frame_is_9_blocks_plus_ifg(self):
        # §3.2: "Ethernet enforces at least 9 PHY blocks per frame".
        blocks = encode_frame(b"\xAA" * 64, append_ifg=False)
        assert len(blocks) == MIN_BLOCKS_PER_FRAME

    def test_frame_roundtrip(self):
        frame = bytes(range(256)) * 4  # 1024 B
        blocks = encode_frame(frame, append_ifg=False)
        assert decode_frame(blocks) == frame

    def test_frame_roundtrip_with_ifg(self):
        frame = b"\x5A" * 100
        blocks = encode_frame(frame)
        assert decode_frame(blocks) == frame

    def test_undersized_frame_rejected(self):
        with pytest.raises(PhyError):
            encode_frame(b"\x00" * 63)

    def test_frame_structure(self):
        blocks = encode_frame(b"\x11" * 64, append_ifg=False)
        assert blocks[0].block_type == BlockType.START
        assert all(b.is_data for b in blocks[1:-1])
        assert trailing_bytes(blocks[-1]) == (64 - 7) % 8

    def test_block_count_for_frame_matches_encoder(self):
        for size in (64, 65, 100, 1500):
            blocks = encode_frame(b"\x00" * size)
            assert len(blocks) == block_count_for_frame(size)


class TestMemoryCodec:
    def test_tiny_message_is_one_mst_block(self):
        blocks = encode_memory_message(b"\x01" * 7)
        assert len(blocks) == 1
        assert blocks[0].block_type == BlockType.MEM_SINGLE

    def test_8_byte_message_is_two_blocks(self):
        blocks = encode_memory_message(b"\x01" * 8)
        assert len(blocks) == 2
        assert blocks[0].block_type == BlockType.MEM_START
        assert blocks[-1].block_type == BlockType.MEM_TERM

    def test_64_byte_message_block_count(self):
        # /MS/(7) + 7x/MD/(56) + /MT/(1) = 9 blocks.
        assert block_count_for_message(64) == 9

    def test_block_count_matches_encoder(self):
        for size in (1, 7, 8, 15, 64, 100, 1024):
            assert len(encode_memory_message(b"\x00" * size)) == (
                block_count_for_message(size)
            )

    def test_notification_and_grant_single_block(self):
        assert len(encode_notification(b"\x01" * 5)) == 1
        assert len(encode_grant(b"\x01" * 5)) == 1

    def test_empty_message_rejected(self):
        with pytest.raises(PhyError):
            encode_memory_message(b"")


class TestBandwidthEfficiency:
    def test_mac_wastes_88_percent_for_8b_rreq(self):
        # §2.4 limitation 1: "an 88% bandwidth wastage while sending 8 B
        # RREQ messages using minimum-sized Ethernet frames".
        assert mac_bandwidth_efficiency(8) == pytest.approx(8 / 76, rel=0.01)
        assert 1 - mac_bandwidth_efficiency(8) > 0.88

    def test_edm_efficiency_for_8b_rreq(self):
        # 8 B in 2 blocks (16 wire bytes) = 50% vs ~10% for MAC.
        assert edm_bandwidth_efficiency(8) == pytest.approx(0.5)

    def test_edm_beats_mac_for_all_small_sizes(self):
        for size in range(1, 128):
            assert edm_bandwidth_efficiency(size) > mac_bandwidth_efficiency(size)

    def test_efficiencies_converge_for_large_messages(self):
        ratio = edm_bandwidth_efficiency(9000) / mac_bandwidth_efficiency(9000)
        assert ratio < 1.15


class TestRxDemux:
    def test_extracts_memory_message_and_idles_it_out(self):
        demux = EdmRxDemux()
        blocks = encode_memory_message(b"\x42" * 64)
        result = demux.demux(blocks)
        assert len(result.memory_messages) == 1
        assert result.memory_messages[0].payload == b"\x42" * 64
        # Replaced with idle characters before the standard decoder (§3.2).
        assert all(b.block_type == BlockType.IDLE for b in result.ethernet_blocks)

    def test_extracts_mst_message(self):
        demux = EdmRxDemux()
        result = demux.demux(encode_memory_message(b"\x01\x02\x03"))
        assert result.memory_messages[0].payload == b"\x01\x02\x03"

    def test_extracts_notifications_and_grants(self):
        demux = EdmRxDemux()
        blocks = encode_notification(b"\xAA" * 5) + encode_grant(b"\xBB" * 5)
        result = demux.demux(blocks)
        assert result.notifications == [b"\xAA" * 5]
        assert result.grants == [b"\xBB" * 5]

    def test_passes_ethernet_frame_through(self):
        demux = EdmRxDemux()
        frame = b"\x77" * 80
        result = demux.demux(encode_frame(frame))
        assert decode_frame(result.ethernet_blocks) == frame
        assert not result.memory_messages

    def test_interleaved_memory_and_frame(self):
        # A memory message preempting a frame: frame blocks, then the
        # whole memory run, then the rest of the frame.
        demux = EdmRxDemux()
        frame_blocks = encode_frame(b"\x33" * 100, append_ifg=False)
        mem_blocks = encode_memory_message(b"\x44" * 16)
        stream = frame_blocks[:5] + mem_blocks + frame_blocks[5:]
        result = demux.demux(stream)
        assert result.memory_messages[0].payload == b"\x44" * 16
        assert decode_frame(result.ethernet_blocks) == b"\x33" * 100

    def test_mt_without_ms_rejected(self):
        from repro.phy.blocks import term_block
        demux = EdmRxDemux()
        with pytest.raises(PhyError):
            demux.demux([term_block(b"x", memory=True)])

    def test_nested_ms_rejected(self):
        from repro.phy.blocks import mem_start_block
        demux = EdmRxDemux()
        with pytest.raises(PhyError):
            demux.demux([mem_start_block(b"a"), mem_start_block(b"b")])

    # Draw the size first: st.binary alone rarely goes past ~30 B, so
    # multi-block messages would go unchecked.
    @given(st.integers(1, 600).flatmap(lambda n: st.binary(min_size=n, max_size=n)))
    @settings(max_examples=60, deadline=None)
    def test_property_memory_roundtrip(self, payload):
        demux = EdmRxDemux()
        result = demux.demux(encode_memory_message(payload))
        extracted = result.memory_messages[0].payload
        # /MST/ and /MT/ zero-pad; strip only the padding we added.
        assert extracted[: len(payload)] == payload
        assert result.memory_messages[0].block_count == block_count_for_message(len(payload))
