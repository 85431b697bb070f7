"""Time, clock, and bandwidth constants used throughout the reproduction.

The paper's prototype runs the PCS datapath of 25 GbE, whose 66-bit block
clock period is 2.56 ns (66 bits / 25.78125 Gbaud ≈ 64 payload bits /
25 Gbps).  The switch scheduler is synthesized at 3 GHz on an ASIC
(§4.1).  All simulation times in this library are expressed in
**nanoseconds** (floats), and all bandwidths in **bits per nanosecond**,
which conveniently equals Gbps.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError

#: PCS datapath clock period at 25 GbE, in nanoseconds (Table 1, Figure 5).
PCS_CYCLE_NS = 2.56

#: Scheduler ASIC clock rate in GHz (§4.1: "runs at 3 GHz").
SCHEDULER_CLOCK_GHZ = 3.0

#: Scheduler ASIC clock period in nanoseconds.
SCHEDULER_CYCLE_NS = 1.0 / SCHEDULER_CLOCK_GHZ

#: One-hop propagation delay used in the testbed and simulations (Table 1).
PROPAGATION_DELAY_NS = 10.0

#: Link bandwidth of the FPGA prototype, in Gbps (== bits/ns).
TESTBED_LINK_GBPS = 25.0

#: Link bandwidth used in the large-scale simulations (§4.3), in Gbps.
SIM_LINK_GBPS = 100.0

#: Size of a 66-bit PHY block on the wire, in bits.
BLOCK_WIRE_BITS = 66

#: Minimum Ethernet frame size imposed by the MAC layer, in bytes (§2.4).
MIN_ETHERNET_FRAME_BYTES = 64

#: Inter-frame gap imposed by IEEE 802.3, in bytes (§2.4: 96 bits).
INTER_FRAME_GAP_BYTES = 12

#: Ethernet preamble + start-frame delimiter, in bytes.
PREAMBLE_BYTES = 8

#: DDR4 burst size used for chunk-size discussion (§3.1.4), in bytes.
DDR4_BURST_BYTES = 64

#: Local DDR4 access latency used in Figure 7 ("DDR4 ~82ns").
LOCAL_DRAM_LATENCY_NS = 82.0


def gbps_to_bits_per_ns(gbps: float) -> float:
    """Convert Gbps to bits/ns.  The two units are numerically identical."""
    if gbps <= 0:
        raise ConfigError(f"bandwidth must be positive, got {gbps}")
    return float(gbps)


def transmission_delay_ns(size_bytes: float, bandwidth_gbps: float) -> float:
    """Serialization delay of ``size_bytes`` over a ``bandwidth_gbps`` link."""
    if size_bytes < 0:
        raise ConfigError(f"size must be non-negative, got {size_bytes}")
    return (size_bytes * 8.0) / gbps_to_bits_per_ns(bandwidth_gbps)


def cycles_to_ns(cycles: float, cycle_ns: float = PCS_CYCLE_NS) -> float:
    """Convert a clock-cycle count to nanoseconds."""
    if cycles < 0:
        raise ConfigError(f"cycle count must be non-negative, got {cycles}")
    return cycles * cycle_ns


def matching_latency_ns(
    num_ports: int,
    clock_ghz: float = SCHEDULER_CLOCK_GHZ,
    cycles_per_iteration: int = 3,
) -> float:
    """Average latency to form a maximal matching (§3.1.3).

    PIM needs ``log2(N)`` iterations on average, and EDM implements each
    iteration in exactly ``cycles_per_iteration`` (3) clock cycles, so the
    latency is ``3 * log2(N) / R`` ns for an ``R`` GHz scheduler clock.
    """
    if num_ports < 2:
        raise ConfigError(f"a switch needs at least 2 ports, got {num_ports}")
    if clock_ghz <= 0:
        raise ConfigError(f"clock rate must be positive, got {clock_ghz}")
    iterations = math.log2(num_ports)
    return cycles_per_iteration * iterations / clock_ghz


def min_chunk_bytes_for_line_rate(
    num_ports: int,
    link_gbps: float,
    clock_ghz: float = SCHEDULER_CLOCK_GHZ,
) -> int:
    """Minimum chunk size that keeps the link busy during matching (§3.1.3).

    The chunk must take at least as long to transmit as the scheduler takes
    to form the next maximal matching.  For a 512-port, 100 Gbps switch at
    3 GHz this yields 128 B, matching the paper.
    """
    latency = matching_latency_ns(num_ports, clock_ghz)
    bits = latency * gbps_to_bits_per_ns(link_gbps)
    # Round up to the DDR4 burst granularity the paper assumes for chunks.
    bursts = max(1, math.ceil(bits / 8.0 / DDR4_BURST_BYTES))
    return bursts * DDR4_BURST_BYTES
