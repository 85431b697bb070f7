"""Integration tests: full EDM protocol through NICs, switch, and scheduler.

These exercise the real end-to-end paths of §3.2 — RREQ as implicit
notification, /N/ + /G/ for writes, chunked RRES, atomic RMW at the
memory node, in-order per-pair delivery, the §3.3 deadlock timer, and
what a ``run(deadline_ns=...)`` cut leaves behind.
"""

import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_kernel import replay_on

from repro.core.messages import make_wreq
from repro.core.opcodes import RmwOpcode
from repro.errors import HostError
from repro.fabrics.base import ClusterConfig, OfferedMessage
from repro.fabrics.edm import EdmCluster, EdmFabric
from repro.host.nic import HostConfig
from repro.host.state import MessageIdAllocator, MessageState
from repro.host.wire import TransferKind
from repro.memctrl.dram import DramTiming
from repro.workloads.distributions import fixed_size
from repro.workloads.synthetic import SyntheticSpec

ZERO_DRAM = DramTiming(row_hit_ns=0.0, row_miss_ns=0.0, bandwidth_gbps=1e9)


def make_cluster(nodes=4, gbps=100.0, **kw):
    return EdmCluster(ClusterConfig(num_nodes=nodes, link_gbps=gbps),
                      dram_timing=ZERO_DRAM, **kw)


class TestUnloadedOperations:
    def test_read_completes_with_data(self):
        cluster = make_cluster()
        done = []
        cluster.nic(0).read(1, 0x100, 64, lambda c: done.append(c))
        cluster.sim.run()
        assert len(done) == 1
        assert done[0].latency_ns > 0
        assert not done[0].timed_out

    def test_write_completes_at_memory_node(self):
        cluster = make_cluster()
        done = []
        cluster.nic(0).write(1, 0x200, 64, lambda c: done.append(c))
        cluster.sim.run()
        assert len(done) == 1

    def test_write_lands_in_remote_dram(self):
        cluster = make_cluster()
        cluster.nic(0).write(1, 0x200, 64, lambda c: None)
        cluster.sim.run()
        assert cluster.nic(1).controller.dram.writes == 1

    def test_cas_roundtrip(self):
        cluster = make_cluster()
        mem = cluster.nic(1).controller
        mem.dram.write_word(0x300, 7)
        done = []
        cluster.nic(0).rmw(
            1, 0x300, RmwOpcode.COMPARE_AND_SWAP, (7, 99),
            lambda c: done.append(c),
        )
        cluster.sim.run()
        assert len(done) == 1
        assert mem.dram.read_word(0x300)[0] == 99

    def test_read_latency_close_to_table1_scale(self):
        # The DES testbed at 25 GbE should land in the few-hundred-ns
        # regime of Table 1 (it models cycles + wire, not PMA extras).
        cluster = make_cluster(nodes=2, gbps=25.0)
        done = []
        cluster.nic(0).read(1, 0, 64, lambda c: done.append(c.latency_ns))
        cluster.sim.run()
        assert 100 < done[0] < 500

    def test_write_cheaper_than_read_unloaded(self):
        cluster = make_cluster(nodes=2, gbps=25.0)
        out = {}
        cluster.nic(0).read(1, 0, 64, lambda c: out.__setitem__("r", c.latency_ns))
        cluster.sim.run()
        cluster.nic(0).write(1, 0, 64, lambda c: out.__setitem__("w", c.latency_ns))
        cluster.sim.run()
        # Read pays two data hops (RREQ + RRES); write pays notify/grant
        # (control) + one data path — both ~300 ns scale, read >= write.
        assert out["r"] >= out["w"] * 0.8


class TestChunking:
    def test_large_read_is_chunked_and_reassembled(self):
        cluster = make_cluster()
        done = []
        cluster.nic(0).read(1, 0, 4096, lambda c: done.append(c))
        cluster.sim.run()
        assert len(done) == 1

    def test_large_write_is_chunked(self):
        cluster = make_cluster()
        done = []
        cluster.nic(0).write(1, 0, 2048, lambda c: done.append(c))
        cluster.sim.run()
        assert len(done) == 1

    def test_larger_reads_take_longer(self):
        latencies = {}
        for size in (64, 4096):
            cluster = make_cluster()
            cluster.nic(0).read(1, 0, size,
                                lambda c, s=size: latencies.__setitem__(s, c.latency_ns))
            cluster.sim.run()
        assert latencies[4096] > latencies[64]


class TestOrderingAndConcurrency:
    def test_per_pair_reads_complete_in_issue_order(self):
        # §3.1.1 property 5: in-order delivery between a node pair.
        cluster = make_cluster()
        order = []
        for i in range(5):
            cluster.nic(0).read(1, i * 64, 64, lambda c, i=i: order.append(i))
        cluster.sim.run()
        assert order == list(range(5))

    def test_many_to_one_all_complete(self):
        cluster = make_cluster(nodes=6)
        done = []
        for src in range(5):
            cluster.nic(src).read(5, src * 64, 64, lambda c: done.append(c))
        cluster.sim.run()
        assert len(done) == 5

    def test_bidirectional_pairs(self):
        cluster = make_cluster(nodes=2)
        done = []
        cluster.nic(0).write(1, 0, 64, lambda c: done.append("w01"))
        cluster.nic(1).write(0, 0, 64, lambda c: done.append("w10"))
        cluster.nic(0).read(1, 0, 64, lambda c: done.append("r01"))
        cluster.sim.run()
        assert sorted(done) == ["r01", "w01", "w10"]

    def test_rate_limiter_backlog_drains(self):
        # More than X=3 concurrent reads to one destination: all complete.
        cluster = make_cluster()
        done = []
        for i in range(8):
            cluster.nic(0).read(1, i * 64, 64, lambda c: done.append(c))
        cluster.sim.run()
        assert len(done) == 8


class TestEarlyResponseGrant:
    """An RRES /G/ can reach the memory node before the forwarded RREQ.

    The switch sends a /G/ in 1 cycle but forwards a request in 4; at
    64 B chunks the scheduler's next grant comes one 5.76 ns hold window
    after the first, so the second grant leaves first, and traffic queued
    between the two can land it before the node knows the RRES exists.
    """

    def _delay_requests_to(self, cluster, node, delay_ns):
        link = cluster.switch.egress[node]
        deliver = link.receiver

        def receive(transfer):
            if transfer.kind == TransferKind.REQUEST:
                cluster.sim.post(delay_ns, partial(deliver, transfer))
            else:
                deliver(transfer)

        link.receiver = receive

    def test_read_completes_when_grants_overtake_the_request(self):
        cluster = EdmCluster(
            ClusterConfig(num_nodes=2, link_gbps=100.0, chunk_bytes=64),
            dram_timing=ZERO_DRAM,
        )
        self._delay_requests_to(cluster, 1, delay_ns=50.0)
        done = []
        cluster.nic(0).read(1, 0x100, 1024, lambda c: done.append(c))
        cluster.sim.run()
        assert len(done) == 1 and not done[0].timed_out
        memory = cluster.nic(1)
        assert len(memory.serving_table) == 0 and not memory._early_grants

    def test_early_grants_do_not_change_an_in_order_read(self):
        def latency(delay_ns):
            cluster = EdmCluster(
                ClusterConfig(num_nodes=2, link_gbps=100.0, chunk_bytes=64),
                dram_timing=ZERO_DRAM,
            )
            if delay_ns:
                self._delay_requests_to(cluster, 1, delay_ns)
            done = []
            cluster.nic(0).read(1, 0x100, 1024, lambda c: done.append(c))
            cluster.sim.run()
            return done[0].latency_ns

        # A late request delays the whole response by at most its delay.
        assert latency(0.0) < latency(50.0) <= latency(0.0) + 50.0


class TestDeadlockTimer:
    def test_read_times_out_with_null_response(self):
        # §3.3: a timer guards against memory-node failure.
        config = ClusterConfig(num_nodes=3, link_gbps=100.0)
        cluster = EdmCluster(config, dram_timing=ZERO_DRAM)
        nic = cluster.nic(0)
        nic.config = HostConfig(read_timeout_ns=1_000.0)
        # Detach node 1's uplink receiver so its RRES never returns.
        cluster.nics[1].uplink.receiver = lambda payload: None
        done = []
        nic.read(1, 0, 64, lambda c: done.append(c))
        cluster.sim.run()
        assert len(done) == 1
        assert done[0].timed_out
        assert done[0].data == b""

    def test_timeout_cancelled_on_success(self):
        config = ClusterConfig(num_nodes=2, link_gbps=100.0)
        cluster = EdmCluster(config, dram_timing=ZERO_DRAM)
        nic = cluster.nic(0)
        nic.config = HostConfig(read_timeout_ns=1_000_000.0)
        done = []
        nic.read(1, 0, 64, lambda c: done.append(c))
        cluster.sim.run()
        assert len(done) == 1
        assert not done[0].timed_out


    def test_stale_timer_spares_a_later_read_on_the_same_id(self):
        # One message id toward node 1: the second read reuses the first's
        # (dst, message_id) while the first read's timer is still pending.
        config = ClusterConfig(num_nodes=2, link_gbps=100.0)
        cluster = EdmCluster(config, dram_timing=ZERO_DRAM)
        nic = cluster.nic(0)
        nic.config = HostConfig(read_timeout_ns=1_000.0)
        nic.ids = MessageIdAllocator(id_space=1)
        done = []

        def first_done(completion):
            done.append(completion)
            # Node 1 falls silent, so the second read can only time out.
            cluster.nics[1].uplink.receiver = lambda payload: None
            nic.read(1, 0, 64, done.append)

        first = nic.read(1, 0, 64, first_done)
        cluster.sim.run()
        assert len(done) == 2
        first_completion, second_completion = done
        second = second_completion.message
        assert first_completion.message is first and not first_completion.timed_out
        assert second.message_id == first.message_id
        # The second read times out on its own timer, not the first's.
        assert second_completion.timed_out
        assert second_completion.completed_at == second.created_at + 1_000.0


class TestFabricWrapper:
    def test_fabric_runs_offered_workload(self):
        fabric = EdmFabric(ClusterConfig(num_nodes=4, link_gbps=100.0))
        messages = [
            OfferedMessage(src=0, dst=1, size_bytes=64, arrival_ns=0.0, is_read=True),
            OfferedMessage(src=2, dst=3, size_bytes=64, arrival_ns=5.0, is_read=False),
        ]
        result = fabric.run(messages)
        assert len(result.records) == 2
        assert result.incomplete == 0

    def test_unloaded_probe(self):
        fabric = EdmFabric(ClusterConfig(num_nodes=4, link_gbps=100.0))
        read_ns = fabric.measure_unloaded(64, is_read=True)
        write_ns = fabric.measure_unloaded(64, is_read=False)
        assert read_ns > 0 and write_ns > 0


def _snapshot(result):
    return (
        [(r.message.uid, r.completed_at) for r in result.records],
        result.incomplete,
        result.stats,
    )


class TestDeadlineCut:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        deadline_ns=st.sampled_from([300.0, 1000.0, 5000.0]),
    )
    def test_deadline_cuts_identically(self, seed, deadline_ns):
        """A deadline strands exactly the messages the full run finishes
        after it, and the heap and the reference kernel strand the same
        ones."""
        messages = SyntheticSpec(
            num_nodes=6, link_gbps=100.0, load=0.8, message_count=80,
            size_cdf=fixed_size(64), write_fraction=0.5, seed=seed,
            incast_fraction=0.25, incast_degree=5,
        ).materialize()

        def run(kernel="reference", **kwargs):
            config = ClusterConfig(num_nodes=6, seed=seed)
            return replay_on(
                kernel, lambda: EdmFabric(config).run(list(messages), **kwargs)
            )

        full = run()
        cut = run(deadline_ns=deadline_ns)
        assert full.incomplete == 0
        before = [
            (r.message.uid, r.completed_at)
            for r in full.records if r.completed_at <= deadline_ns
        ]
        assert _snapshot(cut)[0] == before
        assert cut.incomplete == len(messages) - len(before)
        assert _snapshot(cut) == _snapshot(run("heap", deadline_ns=deadline_ns))


class TestStateTableKeys:
    """The NIC inserts into its state tables inline; a key already held
    raises the table's own error and leaves the held entry in place."""

    DUPLICATE = re.escape("state table already holds an entry for (1, 0)")

    def held(self, table):
        state = MessageState(message=make_wreq(0, 1, address=0, data_bytes=64))
        table.add(1, 0, state)  # id 0 toward node 1: the first id allocated
        return state

    def test_write_onto_held_key(self):
        nic = make_cluster().nic(0)
        state = self.held(nic.state_table)
        with pytest.raises(HostError, match=self.DUPLICATE):
            nic.write(1, 0, 64, lambda c: None)
        assert nic.state_table.get(1, 0) is state

    def test_read_onto_held_key(self):
        nic = make_cluster().nic(0)
        state = self.held(nic.state_table)
        with pytest.raises(HostError, match=self.DUPLICATE):
            nic.read(1, 0, 64, lambda c: None)
        assert nic.state_table.get(1, 0) is state

    def test_served_request_onto_held_key(self):
        cluster = make_cluster(nodes=2)
        # Node 1 already serves (requester 0, id 0) when node 0's read lands.
        memory = cluster.nic(1)
        state = MessageState(message=make_wreq(1, 0, address=0, data_bytes=64))
        memory.serving_table.add(0, 0, state)
        cluster.nic(0).read(1, 0, 64, lambda c: None)
        with pytest.raises(
            HostError, match=re.escape("state table already holds an entry for (0, 0)")
        ):
            cluster.sim.run()
        assert memory.serving_table.get(0, 0) is state
