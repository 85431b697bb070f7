"""Tests for the intra-frame preemption TX mux (§3.2.3)."""

import pytest

from repro.errors import PhyError
from repro.mac.frame import EthernetFrame
from repro.phy.encoder import encode_frame, encode_memory_message
from repro.phy.preemption import PreemptiveTxMux, memory_latency_blocks


def frame_blocks(payload_len=1500):
    frame = EthernetFrame(dst_mac=1, src_mac=2, payload=b"\xCC" * payload_len)
    return encode_frame(frame.serialize())


class TestTxMux:
    def test_memory_blocked_by_full_frame_without_preemption(self):
        # §2.4 limitation 3: a 1500 B frame blocks a memory message for
        # its entire transmission (~190 blocks).
        mux = PreemptiveTxMux(preemption_enabled=False)
        mux.offer_frame(frame_blocks(1500))
        mux.offer_memory(encode_memory_message(b"\x01" * 8))
        done = memory_latency_blocks(mux.drain())
        assert done is not None and done > 180

    def test_preemption_interleaves_memory_immediately(self):
        mux = PreemptiveTxMux(preemption_enabled=True)
        mux.offer_frame(frame_blocks(1500))
        mux.offer_memory(encode_memory_message(b"\x01" * 8))
        done = memory_latency_blocks(mux.drain())
        assert done is not None and done <= 4

    def test_memory_message_contiguity(self):
        # Once /MS/ is on the wire, the message is never interleaved.
        mux = PreemptiveTxMux()
        mux.offer_frame(frame_blocks(200))
        mux.offer_memory(encode_memory_message(b"\x01" * 64))
        wire = mux.drain()
        mem_cycles = [cycle for cycle, block in enumerate(wire) if block.is_edm]
        spans = [b - a for a, b in zip(mem_cycles, mem_cycles[1:])]
        assert all(s == 1 for s in spans)

    def test_all_blocks_eventually_sent(self):
        mux = PreemptiveTxMux()
        frames = frame_blocks(100)
        mem = encode_memory_message(b"\x01" * 32)
        mux.offer_frame(frames)
        mux.offer_memory(mem)
        assert len(mux.drain()) == len(frames) + len(mem)

    def test_memory_only_without_frames(self):
        mux = PreemptiveTxMux()
        mem = encode_memory_message(b"\x01" * 16)
        mux.offer_memory(mem)
        assert len(mux.drain()) == len(mem)

    def test_empty_runs_rejected(self):
        mux = PreemptiveTxMux()
        with pytest.raises(PhyError):
            mux.offer_memory([])
        with pytest.raises(PhyError):
            mux.offer_frame([])
