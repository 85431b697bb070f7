"""Tests for repro.core.clock: time, bandwidth, and scheduling arithmetic."""

import pytest

from repro.core import clock
from repro.errors import ConfigError


class TestConversions:
    def test_gbps_is_bits_per_ns(self):
        assert clock.gbps_to_bits_per_ns(100.0) == 100.0

    def test_gbps_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            clock.gbps_to_bits_per_ns(0)

    def test_transmission_delay_64b_at_100g(self):
        assert clock.transmission_delay_ns(64, 100.0) == pytest.approx(5.12)

    def test_transmission_delay_zero_bytes(self):
        assert clock.transmission_delay_ns(0, 25.0) == 0.0

    def test_transmission_delay_rejects_negative(self):
        with pytest.raises(ConfigError):
            clock.transmission_delay_ns(-1, 25.0)

    def test_cycles_to_ns_default_pcs_cycle(self):
        assert clock.cycles_to_ns(3) == pytest.approx(7.68)

    def test_cycles_to_ns_rejects_negative(self):
        with pytest.raises(ConfigError):
            clock.cycles_to_ns(-1)

    def test_pcs_cycle_is_2_56ns(self):
        # 64 payload bits at 25 Gbps (Table 1 / Figure 5 caption).
        assert clock.PCS_CYCLE_NS == pytest.approx(64 / 25.0)


class TestMatchingLatency:
    def test_512_ports_at_3ghz_is_9ns(self):
        # §3.1.3: "needing only 9ns on average to form a maximal matching
        # for a 512-port switch".
        assert clock.matching_latency_ns(512) == pytest.approx(9.0)

    def test_scales_with_log_ports(self):
        l64 = clock.matching_latency_ns(64)
        l128 = clock.matching_latency_ns(128)
        assert l128 - l64 == pytest.approx(3 / clock.SCHEDULER_CLOCK_GHZ, rel=1e-6)

    def test_rejects_single_port(self):
        with pytest.raises(ConfigError):
            clock.matching_latency_ns(1)

    def test_rejects_bad_clock(self):
        with pytest.raises(ConfigError):
            clock.matching_latency_ns(64, clock_ghz=0)


class TestMinChunkSize:
    def test_paper_example_512_ports_100g(self):
        # §3.1.3: "to achieve line rate scheduling for 512x100 Gbps switch,
        # EDM would set the minimum chunk size to 128 B".
        assert clock.min_chunk_bytes_for_line_rate(512, 100.0) == 128

    def test_small_switch_needs_one_burst(self):
        assert clock.min_chunk_bytes_for_line_rate(4, 25.0) == 64

    def test_chunk_is_multiple_of_ddr4_burst(self):
        for ports in (8, 64, 256, 512):
            chunk = clock.min_chunk_bytes_for_line_rate(ports, 400.0)
            assert chunk % clock.DDR4_BURST_BYTES == 0
