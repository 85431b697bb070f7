"""Converged-traffic interference (§4.2.1): memory latency alongside IP.

"Our testbed experiments showed that even under interference from IP
traffic, EDM maintained a near-constant ~300 ns remote memory access
latency."  The block-level mechanism is the preemptive TX mux; these
tests quantify the contrast against the MAC-layer path at the wire level.
"""

import pytest

from repro.core.clock import PCS_CYCLE_NS
from repro.mac.frame import EthernetFrame
from repro.phy.encoder import encode_frame, encode_memory_message
from repro.phy.preemption import PreemptiveTxMux, memory_latency_blocks


def ip_frame(size=1500):
    return encode_frame(
        EthernetFrame(dst_mac=1, src_mac=2, payload=b"\x99" * size).serialize()
    )


class TestInterference:
    def test_memory_latency_nearly_constant_under_ip_load(self):
        """With preemption, memory latency is bounded by the fair-share
        interleave, not by frame sizes."""
        latencies = []
        for n_frames in (0, 1, 4, 8):
            mux = PreemptiveTxMux()
            for _ in range(n_frames):
                mux.offer_frame(ip_frame())
            mux.offer_memory(encode_memory_message(b"\x01" * 64))
            done = memory_latency_blocks(mux.drain())
            latencies.append(done * PCS_CYCLE_NS)
        # A 64 B message is 9 blocks; fair interleave doubles its wire
        # time at worst, regardless of how much IP traffic is queued.
        assert max(latencies) <= 2.5 * latencies[0]

    def test_mac_latency_grows_with_ip_backlog(self):
        """Without preemption the memory message waits for every earlier
        frame — latency scales with the IP backlog (§2.4 limitation 3)."""
        latencies = []
        for n_frames in (1, 4):
            mux = PreemptiveTxMux(preemption_enabled=False)
            for _ in range(n_frames):
                mux.offer_frame(ip_frame())
            mux.offer_memory(encode_memory_message(b"\x01" * 64))
            done = memory_latency_blocks(mux.drain())
            latencies.append(done * PCS_CYCLE_NS)
        assert latencies[1] > 3 * latencies[0]

    def test_jumbo_frame_blocking_matches_paper_arithmetic(self):
        # §2.4: failure to preempt a 9 KB jumbo frame adds ~720 ns at
        # 100 Gbps — i.e. ~2880 ns at our modelled 25 GbE (4x slower).
        mux = PreemptiveTxMux(preemption_enabled=False)
        mux.offer_frame(ip_frame(9000))
        mux.offer_memory(encode_memory_message(b"\x01" * 8))
        done = memory_latency_blocks(mux.drain())
        blocking_ns = done * PCS_CYCLE_NS
        assert blocking_ns == pytest.approx(4 * 720, rel=0.08)

    def test_ip_traffic_still_delivered_intact(self):
        """Preemption must not corrupt the non-memory stream."""
        from phy_reference import EdmRxDemux, decode_frame

        mux = PreemptiveTxMux()
        payload = b"\x77" * 300
        mux.offer_frame(encode_frame(
            EthernetFrame(dst_mac=1, src_mac=2, payload=payload).serialize(),
            append_ifg=False,
        ))
        mux.offer_memory(encode_memory_message(b"\x01" * 64))
        result = EdmRxDemux().demux(mux.drain())
        raw = decode_frame(result.ethernet_blocks)
        frame, fcs_ok = EthernetFrame.parse(raw)
        assert fcs_ok
        assert frame.payload == payload
        assert result.memory_messages[0].payload[:64] == b"\x01" * 64
