#!/usr/bin/env python3
"""Intra-frame preemption demo (§3.2.3, limitation 3).

A small memory message arrives at the TX mux just after a 1500 B Ethernet
frame started transmitting.  Without preemption (standard MAC behaviour)
the memory message waits for the whole frame; with EDM's 66-bit block
multiplexing it interleaves immediately.

Run:  python examples/preemption_demo.py
"""

from repro.core.clock import PCS_CYCLE_NS
from repro.mac.frame import EthernetFrame
from repro.phy.encoder import encode_frame, encode_memory_message
from repro.phy.preemption import PreemptiveTxMux, memory_latency_blocks


def run_mux(preemption: bool) -> int:
    mux = PreemptiveTxMux(preemption_enabled=preemption)
    frame = EthernetFrame(dst_mac=0x1, src_mac=0x2, payload=b"\xAB" * 1500)
    mux.offer_frame(encode_frame(frame.serialize()))
    mux.offer_memory(encode_memory_message(b"\x01" * 8))  # an 8 B RREQ
    done = memory_latency_blocks(mux.drain())
    assert done is not None
    return done


def main() -> None:
    without = run_mux(preemption=False)
    with_p = run_mux(preemption=True)
    print("8 B memory message behind a 1500 B frame on the same link:")
    print(
        f"  no preemption (MAC behaviour): memory blocks done at cycle "
        f"{without} ({without * PCS_CYCLE_NS:.0f} ns)"
    )
    print(
        f"  EDM intra-frame preemption   : memory blocks done at cycle "
        f"{with_p} ({with_p * PCS_CYCLE_NS:.0f} ns)"
    )
    print(f"  improvement: {without / max(with_p, 1):.0f}x lower blocking latency")


if __name__ == "__main__":
    main()
