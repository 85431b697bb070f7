"""Tests for the DRAM model and memory controller (atomic RMW included)."""

import re

import pytest

from repro.core.messages import make_rmwreq, make_rreq, make_wreq
from repro.core.opcodes import RmwOpcode
from repro.errors import MemoryError_
from repro.memctrl.controller import MemoryController
from repro.memctrl.dram import Dram, DramTiming


class TestDram:
    def test_read_unwritten_returns_zeros(self):
        dram = Dram(1024)
        data, _ = dram.read(0, 16)
        assert data == b"\x00" * 16

    def test_write_then_read(self):
        dram = Dram(1024)
        dram.write(100, b"hello")
        data, _ = dram.read(100, 5)
        assert data == b"hello"

    def test_out_of_range_rejected(self):
        dram = Dram(64)
        with pytest.raises(MemoryError_):
            dram.read(60, 8)
        with pytest.raises(MemoryError_):
            dram.write(-1, b"x")

    @pytest.mark.parametrize("address,length", [(60, 8), (-1, 4), (0, -1), (0, 65)])
    def test_out_of_range_read_message(self, address, length):
        dram = Dram(64)
        with pytest.raises(MemoryError_, match=re.escape(
            f"access [{address}, {address + length}) outside [0, 64)"
        )):
            dram.read(address, length)
        with pytest.raises(MemoryError_, match=re.escape(
            f"access [{address}, {address + length}) outside [0, 64)"
        )):
            MemoryController(64).read(address, length)
        assert dram.reads == 0

    @pytest.mark.parametrize("address,data", [(60, b"x" * 8), (-1, b"x"), (65, b"")])
    def test_out_of_range_write_message(self, address, data):
        dram = Dram(64)
        expected = f"access [{address}, {address + len(data)}) outside [0, 64)"
        with pytest.raises(MemoryError_, match=re.escape(expected)):
            dram.write(address, data)
        controller = MemoryController(64)
        with pytest.raises(MemoryError_, match=re.escape(expected)):
            controller.write(address, data)
        assert dram.writes == 0 and controller.busy_until == 0.0

    def test_row_hit_is_faster_than_miss(self):
        timing = DramTiming(row_hit_ns=40.0, row_miss_ns=82.0, row_bytes=1024)
        dram = Dram(1 << 16, timing)
        _, first = dram.read(0, 8)     # cold: row miss
        _, second = dram.read(8, 8)    # same row: hit
        _, third = dram.read(4096, 8)  # different row: miss
        assert first == 82.0 and second == 40.0 and third == 82.0

    def test_large_read_adds_streaming_bursts(self):
        timing = DramTiming()
        dram = Dram(1 << 16, timing)
        _, lat_small = dram.read(0, 64)
        dram2 = Dram(1 << 16, timing)
        _, lat_big = dram2.read(0, 640)
        assert lat_big > lat_small

    def test_word_helpers(self):
        dram = Dram(1024)
        dram.write_word(64, 0xDEADBEEF)
        value, _ = dram.read_word(64)
        assert value == 0xDEADBEEF

    def test_word_range_checked(self):
        dram = Dram(1024)
        with pytest.raises(MemoryError_):
            dram.write_word(0, 1 << 64)

    def test_access_counters(self):
        dram = Dram(1024)
        dram.read(0, 8)
        dram.write(0, b"x")
        assert dram.reads == 1 and dram.writes == 1


class TestController:
    def test_read_returns_completion_time(self):
        ctrl = MemoryController(1024)
        result, done = ctrl.read(0, 64, now=100.0)
        assert done > 100.0
        assert len(result.data) == 64

    def test_controller_serializes_operations(self):
        ctrl = MemoryController(1 << 16)
        _, first_done = ctrl.read(0, 64, now=0.0)
        _, second_done = ctrl.read(8192, 64, now=0.0)
        assert second_done > first_done

    def test_rmw_cas_success(self):
        ctrl = MemoryController(1024)
        ctrl.dram.write_word(0, 5)
        result, _ = ctrl.read_modify_write(0, RmwOpcode.COMPARE_AND_SWAP, (5, 9))
        assert result.rmw.swapped
        assert ctrl.dram.read_word(0)[0] == 9

    def test_rmw_cas_failure_leaves_memory(self):
        ctrl = MemoryController(1024)
        ctrl.dram.write_word(0, 5)
        result, _ = ctrl.read_modify_write(0, RmwOpcode.COMPARE_AND_SWAP, (4, 9))
        assert not result.rmw.swapped
        assert ctrl.dram.read_word(0)[0] == 5

    def test_rmw_fetch_add_accumulates(self):
        ctrl = MemoryController(1024)
        for _ in range(3):
            ctrl.read_modify_write(8, RmwOpcode.FETCH_AND_ADD, (10,))
        assert ctrl.dram.read_word(8)[0] == 30

    def test_rmw_atomicity_under_serialization(self):
        # Two concurrent CAS on the same address: exactly one succeeds.
        ctrl = MemoryController(1024)
        r1, _ = ctrl.read_modify_write(0, RmwOpcode.COMPARE_AND_SWAP, (0, 1), now=0.0)
        r2, _ = ctrl.read_modify_write(0, RmwOpcode.COMPARE_AND_SWAP, (0, 2), now=0.0)
        assert r1.rmw.swapped != r2.rmw.swapped or ctrl.dram.read_word(0)[0] in (1, 2)
        assert [r1.rmw.swapped, r2.rmw.swapped].count(True) == 1

    def test_execute_message_dispatch(self):
        ctrl = MemoryController(1 << 16)
        rreq = make_rreq(0, 1, address=0, read_bytes=64)
        result, _ = ctrl.execute_message(rreq)
        assert len(result.data) == 64
        wreq = make_wreq(0, 1, address=128, data_bytes=64)
        ctrl.execute_message(wreq)
        rmw = make_rmwreq(0, 1, 256, RmwOpcode.FETCH_AND_ADD, (7,))
        result, _ = ctrl.execute_message(rmw)
        assert result.rmw is not None

    def test_rres_cannot_be_executed(self):
        from repro.core.messages import make_rres
        ctrl = MemoryController(1024)
        rres = make_rres(make_rreq(0, 1, address=0, read_bytes=8))
        with pytest.raises(MemoryError_):
            ctrl.execute_message(rres)
