"""Fault injection over the four queueing-substrate fabrics.

The previously-orphan models (PFC, DCTCP, pFabric, CXL) are first-class
registry citizens now; these tests pin down the properties the scenario
engine depends on: determinism under a fixed seed, conservation of
offered messages, mid-run switch failover draining cleanly, and fault
windows actually changing observed behaviour.
"""

from dataclasses import replace

import pytest
from reference_kernel import replay_on

from repro.errors import SimulationError
from repro.fabrics import (
    ClusterConfig,
    EdmFabric,
    fabric_by_name,
    fabric_info,
    fabrics_with_tag,
)
from repro.scenarios import (
    FaultInjector,
    FaultSpec,
    run_scenario,
    scenario_by_name,
)
from repro.sim.context import SimContext
from repro.sim.link import Link
from repro.workloads.shapes import IncastSpec

ORPHANS = ("PFC", "DCTCP", "pFabric", "CXL")

CONFIG = ClusterConfig(num_nodes=6, seed=3)


def _incast(count=150, seed=3):
    return IncastSpec(
        num_nodes=CONFIG.num_nodes, link_gbps=CONFIG.link_gbps,
        load=0.6, message_count=count, degree=4, seed=seed,
    ).materialize()


def _completions(result):
    return sorted((r.message.uid, r.completed_at) for r in result.records)


class TestRegistryTags:
    def test_orphans_are_faultable(self):
        assert set(ORPHANS) <= set(fabrics_with_tag("faultable"))

    def test_scheduled_fabrics_are_not(self):
        for name in ("EDM", "IRD", "Fastpass"):
            assert not fabric_info(name).has("faultable")

    def test_tag_queries(self):
        assert fabrics_with_tag("lossless") == ["PFC", "CXL"]
        assert "queueing" in fabric_info("dctcp").tags


@pytest.mark.parametrize("name", ORPHANS)
class TestOrphanFabrics:
    def test_deterministic_under_fixed_seed(self, name):
        messages = _incast()
        first = fabric_by_name(name, CONFIG).run(messages)
        second = fabric_by_name(name, CONFIG).run(messages)
        assert [(r.message.uid, r.completed_at) for r in first.records] == [
            (r.message.uid, r.completed_at) for r in second.records
        ]

    def test_conserves_offered_messages(self, name):
        messages = _incast()
        result = fabric_by_name(name, CONFIG).run(messages)
        assert len(result.records) + result.incomplete == len(messages)
        uids = [r.message.uid for r in result.records]
        assert len(uids) == len(set(uids)), "duplicate completions"

    def test_failover_mid_run_drains_cleanly(self, name):
        messages = _incast()
        fabric = fabric_by_name(name, CONFIG)
        span = max(m.arrival_ns for m in messages)
        injector = FaultInjector(
            (FaultSpec(kind="failover", at_ns=span * 0.4),)
        )
        fabric.topology_hook = injector.install
        result = fabric.run(messages)  # no deadline: run to drain
        assert len(result.records) + result.incomplete == len(messages)
        assert result.incomplete == 0, f"{name} lost messages across failover"
        summary = injector.summary()
        assert summary["failovers"] == 1
        assert summary["active_path"] == "backup"
        assert injector.drained(), "mirrored copies left in flight"
        assert summary["mirrored_frames"] > 0

    def test_degraded_window_slows_completion(self, name):
        messages = _incast()
        fabric = fabric_by_name(name, CONFIG)
        clean = fabric_by_name(name, CONFIG).run(messages)
        span = max(m.arrival_ns for m in messages)
        injector = FaultInjector(
            (
                FaultSpec(
                    kind="degraded_bw", at_ns=span * 0.1,
                    until_ns=span * 0.9, factor=0.1,
                ),
            )
        )
        fabric.topology_hook = injector.install
        degraded = fabric.run(messages)
        assert degraded.incomplete == 0
        assert degraded.mean_latency_ns() > clean.mean_latency_ns()

    def test_link_down_window_delays_but_delivers(self, name):
        messages = _incast()
        fabric = fabric_by_name(name, CONFIG)
        clean = fabric_by_name(name, CONFIG).run(messages)
        span = max(m.arrival_ns for m in messages)
        injector = FaultInjector(
            (
                FaultSpec(
                    kind="link_down", at_ns=span * 0.2,
                    until_ns=span * 1.2, nodes=(0, 1),
                ),
            )
        )
        fabric.topology_hook = injector.install
        result = fabric.run(messages)
        assert result.incomplete == 0
        assert (
            max(r.completed_at for r in result.records)
            >= max(r.completed_at for r in clean.records)
        )


def test_lossless_switch_conserves_bytes():
    """Every byte sent up to a lossless switch comes back down."""
    captured = []
    fabric = fabric_by_name("PFC", CONFIG)
    fabric.topology_hook = captured.append
    messages = _incast()
    result = fabric.run(messages)
    assert result.incomplete == 0
    [topo] = captured
    up = sum(link.bytes_sent for link in topo.uplinks.values())
    down = sum(link.bytes_sent for link in topo.downlinks.values())
    assert up == down >= sum(m.size_bytes for m in messages)


class TestEdmLinkFaults:
    """EDM's host-link faults, each keyed on its link's own lane."""

    def _run(self, messages, faults=()):
        fabric = EdmFabric(CONFIG)
        if faults:
            span = max(m.arrival_ns for m in messages)
            injector = FaultInjector(tuple(f.resolved(span) for f in faults))
            fabric.topology_hook = injector.install
        return fabric.run(messages)

    def test_reference_kernel_replays_link_fault(self):
        messages = _incast()
        faults = (FaultSpec(kind="link_down", at_ns=0.3, until_ns=0.6,
                            nodes=(1,), relative=True),)
        faulted = self._run(messages, faults)
        reference = replay_on("reference", lambda: self._run(messages, faults))
        assert faulted.incomplete == 0
        # The fault has teeth, and the reference kernel replays it.
        assert _completions(faulted) != _completions(self._run(messages))
        assert _completions(faulted) == _completions(reference)
        assert faulted.stats == reference.stats

    def test_scenario_row_is_deterministic(self):
        spec = replace(
            scenario_by_name("edm_incast_baseline"),
            faults=(FaultSpec(kind="link_down", at_ns=0.3, until_ns=0.55,
                              nodes=(1,), relative=True),),
        ).scaled(num_nodes=8, message_count=160)
        row = run_scenario(spec)
        # The row reports the fault events that actually fired.
        summary = row["fault_summary"]
        assert summary["faults_fired"] == len(summary["log"]) >= 1
        assert "planned" not in summary
        assert row == run_scenario(spec)
        assert row == replay_on("reference", lambda: run_scenario(spec))


class TestLinkFaultPrimitives:
    def test_block_until_defers_transmission(self):
        ctx = SimContext.create(seed=0)
        got = []
        link = Link(ctx.sim, 100.0, 0.0, receiver=got.append)
        link.block_until(500.0)
        link.send("x", 125)  # 10 ns of serialization at 100 Gbps
        ctx.sim.run()
        assert ctx.sim.now == pytest.approx(510.0)
        assert got == ["x"]

    def test_rate_factor_scales_serialization(self):
        ctx = SimContext.create(seed=0)
        link = Link(ctx.sim, 100.0, 0.0, receiver=lambda _: None)
        link.set_rate_factor(0.25)
        arrival = link.send("x", 125)
        assert arrival == pytest.approx(40.0)
        link.set_rate_factor(1.0)
        assert link.send("y", 125) == pytest.approx(50.0)

    def test_rate_factor_must_be_positive(self):
        ctx = SimContext.create(seed=0)
        link = Link(ctx.sim, 100.0, 0.0, receiver=lambda _: None)
        with pytest.raises(SimulationError):
            link.set_rate_factor(0.0)


class TestFailoverRestore:
    def test_failover_then_restore_switches_back(self):
        spec = scenario_by_name("pfabric_shuffle_failover").scaled(
            num_nodes=6, message_count=120
        )
        row = run_scenario(spec)
        assert row["incomplete"] == 0
        summary = row["fault_summary"]
        assert summary["failovers"] == 1
        assert summary["active_path"] == "primary"  # restored by until_ns
        assert summary["mirror_in_flight"] == 0
