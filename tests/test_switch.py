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


def make_switch(num_nodes=4, chunk=256, sim=None):
    sim = sim or Simulator()
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


    def test_superseded_round_pops_as_an_uncounted_no_op(self):
        """§3.1.3: a fresh demand arms a round before the one armed at a
        port release; the later round stays queued but must do nothing."""
        sim = Simulator()
        pushed = []
        push = sim._push

        def counting_push(entry):
            pushed.append(entry)
            push(entry)

        # Every component binds the simulator's push when it is built.
        sim._push = counting_push
        sim, switch, _ = make_switch(chunk=256, sim=sim)
        scheduler = switch.scheduler
        round_times = []
        schedule = scheduler.schedule

        def recording_schedule(now):
            round_times.append(now)
            return schedule(now)

        scheduler.schedule = recording_schedule
        pops = []
        run_round = switch._run_round

        def observed_round(gen):
            def state():
                return (switch._round_gen, switch._round_armed_at,
                        len(round_times), len(sim._queue._heap))

            before = state()
            run_round(gen)
            pops.append((sim.now, gen, before == state()))

        switch._run_round = observed_round
        # A's first round runs at 4.56 ns and re-arms at its port release,
        # 25.68 ns.  B lands at 12.56 ns, so its round at 14.56 ns
        # supersedes the one at the release.
        switch.on_ingress(notify_transfer(Notification(
            src=0, dst=1, message_id=0, size_bytes=1024, message_uid=1,
        )))
        sim.post_at(10.0, lambda: switch.on_ingress(notify_transfer(Notification(
            src=2, dst=3, message_id=0, size_bytes=1024, message_uid=2,
        ))))
        sim.run()
        stale = [(now, gen) for now, gen, unchanged in pops if unchanged]
        assert stale == [(pytest.approx(25.68), 2)]
        # Only live rounds run the scheduler: one call per round, in order.
        live = [now for now, gen, unchanged in pops if not unchanged]
        assert round_times == live == sorted(set(live))
        assert round_times[:3] == pytest.approx([4.56, 14.56, 25.68])
        # Every entry pushed has popped, and all but the stale one count.
        assert not sim._queue._heap
        assert sim.events_processed == len(pushed) - 1


class TestL2Switch:
    def test_pipeline_latency_matches_table1(self):
        assert PIPELINE_NS == pytest.approx(400.0)
