"""Unit tests for the EDM switch and the baseline L2 pipeline latency."""

import pytest

from repro.core.messages import Notification, make_rreq, make_wreq
from repro.core.scheduler import SchedulerConfig
from repro.errors import FabricError
from repro.host.wire import (
    TransferKind,
    chunk_transfer,
    notify_transfer,
    request_transfer,
)
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.switchfab.l2switch import PIPELINE_NS
from repro.switchfab.switch import EdmSwitch


def make_switch(num_nodes=4, chunk=256):
    sim = Simulator()
    switch = EdmSwitch(
        sim,
        SchedulerConfig(num_ports=num_nodes, link_gbps=100.0, chunk_bytes=chunk),
    )
    inboxes = {n: [] for n in range(num_nodes)}
    for n in range(num_nodes):
        link = Link(sim, 100.0, 10.0, receiver=lambda t, n=n: inboxes[n].append(t))
        switch.attach_port(n, link)
    return sim, switch, inboxes


class TestEdmSwitch:
    def test_notification_produces_grant(self):
        sim, switch, inboxes = make_switch()
        notification = Notification(
            src=0, dst=1, message_id=0, size_bytes=64, message_uid=1,
        )
        switch.on_ingress(notify_transfer(notification))
        sim.run()
        grants = [t for t in inboxes[0] if t.kind == TransferKind.GRANT]
        assert len(grants) == 1
        assert grants[0].grant.chunk_bytes == 64

    def test_rreq_forwarded_to_memory_as_first_grant(self):
        sim, switch, inboxes = make_switch()
        rreq = make_rreq(0, 1, address=0, read_bytes=64)
        switch.on_ingress(request_transfer(rreq))
        sim.run()
        requests = [t for t in inboxes[1] if t.kind == TransferKind.REQUEST]
        assert len(requests) == 1
        assert requests[0].message is rreq
        # No /G/ goes anywhere for a single-chunk response.
        assert not any(t.kind == TransferKind.GRANT for t in inboxes[1])

    def test_multi_chunk_rres_gets_subsequent_grants(self):
        sim, switch, inboxes = make_switch(chunk=256)
        rreq = make_rreq(0, 1, address=0, read_bytes=1000)
        switch.on_ingress(request_transfer(rreq))
        sim.run()
        grants = [t for t in inboxes[1] if t.kind == TransferKind.GRANT]
        # 1000 B = 4 chunks: first granted by the forwarded RREQ, 3 by /G/.
        assert len(grants) == 3
        assert all(g.grant.for_response for g in grants)

    def test_data_chunks_forwarded_through_circuit(self):
        sim, switch, inboxes = make_switch()
        wreq = make_wreq(0, 1, address=0, data_bytes=64)
        transfer = chunk_transfer(wreq, 64, 0, is_final=True)
        switch.on_ingress(transfer)
        sim.run()
        assert inboxes[1][0].kind == TransferKind.DATA_CHUNK
        assert switch.transfers_forwarded == 1

    def test_forwarding_latency_is_classify_plus_forward_cycles(self):
        sim, switch, inboxes = make_switch()
        wreq = make_wreq(0, 1, address=0, data_bytes=64)
        switch.on_ingress(chunk_transfer(wreq, 64, 0, is_final=True))
        sim.run()
        # 5 cycles of switch processing + wire (72 B, 100 Gbps) + 10 ns prop.
        expected = 5 * 2.56 + 72 * 8 / 100.0 + 10.0
        assert sim.now == pytest.approx(expected)

    def test_unknown_port_rejected(self):
        sim, switch, _ = make_switch()
        wreq = make_wreq(0, 200, address=0, data_bytes=64)
        switch.on_ingress(chunk_transfer(wreq, 64, 0, is_final=True))
        with pytest.raises(FabricError):
            sim.run()

    def test_demands_accepted_counter(self):
        sim, switch, _ = make_switch()
        switch.on_ingress(request_transfer(make_rreq(0, 1, address=0, read_bytes=8)))
        sim.run()
        assert switch.demands_accepted == 1


class TestL2Switch:
    def test_pipeline_latency_matches_table1(self):
        assert PIPELINE_NS == pytest.approx(400.0)
