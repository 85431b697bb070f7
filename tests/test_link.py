"""Tests for the link model: serialization, FIFO ordering, propagation."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.link import Link


def make_link(sim, gbps=100.0, prop=10.0):
    received = []
    link = Link(sim, gbps, prop, receiver=lambda p: received.append((sim.now, p)))
    return link, received


class TestDelays:
    def test_single_payload_delay(self):
        sim = Simulator()
        link, received = make_link(sim)
        link.send("a", 64)  # 64B at 100G = 5.12 ns + 10 ns propagation
        sim.run()
        assert received[0][0] == pytest.approx(15.12)

    def test_back_to_back_payloads_serialize(self):
        sim = Simulator()
        link, received = make_link(sim)
        link.send("a", 64)
        link.send("b", 64)
        sim.run()
        assert received[0][0] == pytest.approx(15.12)
        assert received[1][0] == pytest.approx(20.24)

    def test_fifo_order_preserved(self):
        sim = Simulator()
        link, received = make_link(sim)
        for i in range(10):
            link.send(i, 100)
        sim.run()
        assert [p for _, p in received] == list(range(10))

    def test_zero_propagation(self):
        sim = Simulator()
        link, received = make_link(sim, prop=0.0)
        link.send("a", 125)  # 125B*8/100 = 10 ns
        sim.run()
        assert received[0][0] == pytest.approx(10.0)

    def test_idle_gap_resets_transmitter(self):
        sim = Simulator()
        link, received = make_link(sim)
        link.send("a", 64)
        sim.run()
        sim.post(100, lambda: link.send("b", 64))
        sim.run()
        # second send starts fresh at t=115.12... -> arrival 115.12+5.12+10
        assert received[1][0] == pytest.approx(15.12 + 100 + 5.12 + 10)


class TestValidation:
    def test_send_without_receiver_raises(self):
        sim = Simulator()
        link = Link(sim, 100.0, 10.0)
        with pytest.raises(SimulationError):
            link.send("a", 64)

    def test_nonpositive_size_rejected(self):
        sim = Simulator()
        link, _ = make_link(sim)
        with pytest.raises(SimulationError):
            link.send("a", 0)

    def test_negative_propagation_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Link(sim, 100.0, -1.0)

    @pytest.mark.parametrize("prop", [math.nan, math.inf])
    def test_non_finite_propagation_rejected(self, prop):
        with pytest.raises(SimulationError, match="propagation must be finite"):
            Link(Simulator(), 100.0, prop)

    @pytest.mark.parametrize("gbps", [math.nan, math.inf])
    def test_non_finite_bandwidth_rejected(self, gbps):
        with pytest.raises(SimulationError, match="bandwidth must be finite"):
            Link(Simulator(), gbps, 10.0)


class TestAccounting:
    def test_bytes_sent(self):
        sim = Simulator()
        link, _ = make_link(sim)
        link.send("a", 64)
        link.send("b", 100)
        assert link.bytes_sent == 164

    def test_busy_until_reflects_queue(self):
        sim = Simulator()
        link, _ = make_link(sim)
        link.send("a", 125)  # 10 ns of transmission
        link.send("b", 125)
        assert link.busy_until == pytest.approx(20.0)
