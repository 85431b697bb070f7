"""Multi-tier topology contract tests (docs/TOPOLOGY.md).

Covers the spec parser, deterministic ECMP hashing, the leaf-spine
substrate on both the queueing fabrics and EDM — including the headline
determinism property, the heap kernel replaying the sorted-list reference
bit-identically with and without core-link faults — plus byte
conservation across multi-hop paths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_kernel import KERNELS, installed, replay_on

from repro.errors import FabricError, ScenarioError, TopologyError
from repro.fabrics import fabric_by_name, fabric_info
from repro.fabrics.base import ClusterConfig, OfferedMessage
from repro.fabrics.edm import EdmFabric
from repro.scenarios.catalog import scenario_by_name
from repro.scenarios.engine import run_scenario
from repro.scenarios.faults import FaultInjector
from repro.scenarios.spec import FaultSpec
from repro.topology import (
    SINGLE,
    EcmpHasher,
    TopologySpec,
    parse_topology,
)


def _workload(num_nodes, count=80, size=512, gap=40.0):
    """A deterministic all-to-all byte stream (no RNG: pure arithmetic).

    Block ``b`` sends node ``s`` -> ``s + 1 + (b mod (n-1))``, so over
    the run every source hits every destination offset — including every
    cross-leaf pair, whatever the leaf partition.
    """
    messages = []
    for i in range(count):
        src = i % num_nodes
        offset = 1 + (i // num_nodes) % (num_nodes - 1)
        dst = (src + offset) % num_nodes
        messages.append(
            OfferedMessage(src=src, dst=dst, size_bytes=size,
                           arrival_ns=i * gap, is_read=(i % 3 == 0))
        )
    return messages


def _completions(result):
    return sorted(
        (r.message.uid, r.completed_at) for r in result.records
    )


class TestSpecParsing:
    def test_single_aliases(self):
        assert parse_topology("") == SINGLE
        assert parse_topology("single") == SINGLE
        assert parse_topology(SINGLE) is SINGLE
        assert SINGLE.is_single

    def test_leaf_spine_fields(self):
        spec = parse_topology("leaf-spine:leaves=4,spines=2,oversub=2")
        assert spec.kind == "leaf-spine"
        assert spec.leaves == 4 and spec.spines == 2
        assert spec.oversubscription == 2.0
        assert not spec.is_single

    def test_core_prop_override(self):
        spec = parse_topology("leaf-spine:leaves=2,spines=1,core_prop_ns=25")
        assert spec.core_prop(5.0) == 25.0
        # Without an override the core inherits the host propagation.
        assert parse_topology("leaf-spine:leaves=2,spines=1").core_prop(5.0) == 5.0

    @pytest.mark.parametrize("bad", [
        "ring:leaves=2",
        "leaf-spine:leaves=0,spines=1",
        "leaf-spine:leaves=2,spines=0",
        "leaf-spine:leaves=2,oversub=0",
        "leaf-spine:leaves=2,nonsense=1",
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(TopologyError):
            parse_topology(bad)

    def test_leaf_of_contiguous_partition(self):
        spec = parse_topology("leaf-spine:leaves=4,spines=1")
        num_nodes = 10
        assert spec.hosts_per_leaf(num_nodes) == 3
        leaves = [spec.leaf_of(n, num_nodes) for n in range(num_nodes)]
        assert leaves == sorted(leaves)  # contiguous blocks
        assert set(leaves) <= set(range(4))
        # Every node lands on a valid leaf; trailing leaves may run light.
        assert leaves == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]

    def test_trunk_rate_oversubscription(self):
        spec = parse_topology("leaf-spine:leaves=4,spines=2,oversub=2")
        # 16 hosts -> 4 per leaf; 4*100 Gbps of access split over
        # 2 spines at 2:1 oversubscription = 100 Gbps per trunk.
        assert spec.trunk_gbps(100.0, 16) == pytest.approx(100.0)

    def test_validate_cluster_needs_a_host_per_leaf(self):
        spec = parse_topology("leaf-spine:leaves=8,spines=1")
        with pytest.raises(TopologyError):
            spec.validate_cluster(4)

    def test_to_dict_round_trip_fields(self):
        spec = parse_topology("leaf-spine:leaves=4,spines=2,oversub=4")
        d = spec.to_dict()
        assert d["kind"] == "leaf-spine"
        assert d["leaves"] == 4 and d["spines"] == 2
        assert "leaf-spine" in spec.describe()


class TestEcmpHasher:
    def test_deterministic_across_instances(self):
        a, b = EcmpHasher(seed=42, spines=4), EcmpHasher(seed=42, spines=4)
        table_a = [a.spine_for(s, d) for s in range(8) for d in range(8)]
        table_b = [b.spine_for(s, d) for s in range(8) for d in range(8)]
        assert table_a == table_b

    def test_seed_changes_the_mapping(self):
        a, b = EcmpHasher(seed=1, spines=4), EcmpHasher(seed=2, spines=4)
        assert [a.spine_for(s, d) for s in range(16) for d in range(16)] != \
               [b.spine_for(s, d) for s in range(16) for d in range(16)]

    def test_rejects_zero_spines(self):
        with pytest.raises(TopologyError):
            EcmpHasher(seed=0, spines=0)

    @given(st.integers(0, 2**31), st.integers(1, 16),
           st.integers(0, 4095), st.integers(0, 4095))
    @settings(max_examples=100, deadline=None)
    def test_in_range_and_pair_stable(self, seed, spines, src, dst):
        hasher = EcmpHasher(seed=seed, spines=spines)
        spine = hasher.spine_for(src, dst)
        assert 0 <= spine < spines
        # Per-pair stability: no flow ever re-routes mid-run.
        assert hasher.spine_for(src, dst) == spine


class TestConfigGates:
    def test_cluster_config_normalizes_strings(self):
        config = ClusterConfig(num_nodes=8, link_gbps=100.0,
                               topology="leaf-spine:leaves=4,spines=2")
        assert isinstance(config.topology, TopologySpec)
        assert config.topology.leaves == 4

    def test_cluster_smaller_than_leaf_count_rejected(self):
        with pytest.raises(TopologyError):
            ClusterConfig(num_nodes=2, link_gbps=100.0,
                          topology="leaf-spine:leaves=4,spines=1")

    def test_non_multitier_fabric_rejects_leaf_spine(self):
        config = ClusterConfig(num_nodes=8, link_gbps=100.0,
                               topology="leaf-spine:leaves=2,spines=1")
        for name in ("Fastpass", "IRD"):
            assert not fabric_info(name).has("multitier")
            with pytest.raises(FabricError, match="multitier"):
                fabric_by_name(name, config)

    def test_edm_requires_one_spine(self):
        config = ClusterConfig(num_nodes=8, link_gbps=100.0,
                               topology="leaf-spine:leaves=2,spines=2")
        with pytest.raises(FabricError, match="spines=1"):
            EdmFabric(config)

    def test_scenario_core_fault_needs_multitier_topology(self):
        with pytest.raises(ScenarioError):
            scenario_by_name("edm_leafspine_corelink").scaled(
                topology="single"
            )


QUEUEING_FABRICS = ("PFC", "DCTCP", "pFabric", "CXL")


class TestQueueingLeafSpine:
    @pytest.mark.parametrize("name", QUEUEING_FABRICS)
    def test_kernels_bit_identical(self, name):
        messages = _workload(8)
        config = ClusterConfig(
            num_nodes=8, link_gbps=100.0,
            topology="leaf-spine:leaves=4,spines=2,oversub=2",
        )
        heap, reference = (
            replay_on(kernel, lambda: fabric_by_name(name, config).run(
                messages, deadline_ns=10_000_000
            ))
            for kernel in KERNELS
        )
        assert _completions(reference) == _completions(heap)
        assert reference.stats == heap.stats

    @given(st.integers(2, 4), st.integers(1, 3),
           st.sampled_from([1.0, 2.0, 4.0]))
    @settings(max_examples=10, deadline=None)
    def test_pfc_replays_across_kernels_any_shape(self, leaves, spines, oversub):
        topology = (
            f"leaf-spine:leaves={leaves},spines={spines},oversub={oversub}"
        )
        messages = _workload(8, count=48)
        config = ClusterConfig(num_nodes=8, link_gbps=100.0, topology=topology)
        heap, reference = (
            replay_on(kernel, lambda: fabric_by_name("PFC", config).run(
                messages, deadline_ns=10_000_000
            ))
            for kernel in KERNELS
        )
        assert _completions(reference) == _completions(heap)

    def test_bytes_conserved_across_the_core(self):
        """Lossless fabric: every byte up a trunk comes down a trunk."""
        captured = {}
        config = ClusterConfig(num_nodes=8, link_gbps=100.0,
                               topology="leaf-spine:leaves=4,spines=2")
        fabric = fabric_by_name("PFC", config)
        fabric.topology_hook = lambda topo: captured.setdefault("topo", topo)
        result = fabric.run(_workload(8), deadline_ns=10_000_000)
        assert result.incomplete == 0
        topo = captured["topo"]
        assert topo.core_keys == tuple(
            (leaf, spine) for leaf in range(4) for spine in range(2)
        )
        up = sum(pair[0].bytes_sent for pair in topo.core_links.values())
        down = sum(pair[1].bytes_sent for pair in topo.core_links.values())
        assert up > 0
        assert up == down
        # Every offered byte entered the substrate through a host uplink.
        offered = sum(m.size_bytes for m in _workload(8))
        uplink_bytes = sum(link.bytes_sent for link in topo.uplinks.values())
        assert uplink_bytes >= offered

    def test_core_fault_degrades_then_recovers(self):
        messages = _workload(8, count=120)  # shared: uids must match across runs
        config = ClusterConfig(num_nodes=8, link_gbps=100.0,
                               topology="leaf-spine:leaves=4,spines=2")

        def run(with_fault):
            fabric = fabric_by_name("DCTCP", config)
            if with_fault:
                span = max(m.arrival_ns for m in messages)
                injector = FaultInjector((
                    FaultSpec(kind="link_down", at_ns=0.2, until_ns=0.7,
                              nodes=(0,), relative=True,
                              scope="core").resolved(span),
                ))
                fabric.topology_hook = injector.install
            return fabric.run(messages, deadline_ns=50_000_000)

        clean, faulted = run(False), run(True)
        assert clean.incomplete == 0 and faulted.incomplete == 0
        # The outage must actually perturb timing.
        assert _completions(clean) != _completions(faulted)


class TestEdmLeafSpine:
    """EDM over leaf-spine; ``calendar`` in a test name is the reference
    kernel's run, as in the kernel ids (``tests/reference_kernel.py``)."""

    TOPOLOGY = "leaf-spine:leaves=4,spines=1,oversub=2"
    #: One shared workload: offered uids are minted per OfferedMessage, so
    #: all runs must replay the very same message objects to compare.
    MESSAGES = _workload(8, count=96)

    def _run(self, *, kernel="reference", faults=()):
        messages = self.MESSAGES
        config = ClusterConfig(num_nodes=8, link_gbps=100.0, seed=3,
                               topology=self.TOPOLOGY)
        fabric = EdmFabric(config)
        if faults:
            span = max(m.arrival_ns for m in messages)
            injector = FaultInjector(
                tuple(f.resolved(span) for f in faults)
            )
            fabric.topology_hook = injector.install
        with installed(kernel):
            return fabric.run(messages)

    def test_calendar_matches_heap(self):
        """The heap replays the sorted-list reference's completions."""
        serial = self._run()
        assert serial.incomplete == 0
        assert _completions(serial) == _completions(self._run(kernel="heap"))

    def test_event_counts_match_calendar_vs_heap(self):
        reference, heap = self._run(), self._run(kernel="heap")
        assert reference.stats["sim_events"] == heap.stats["sim_events"]

    def test_core_fault_calendar_matches_heap(self):
        faults = (FaultSpec(kind="link_down", at_ns=0.3, until_ns=0.6,
                            nodes=(1,), relative=True, scope="core"),)
        serial = self._run(faults=faults)
        assert serial.incomplete == 0
        baseline = _completions(serial)
        assert baseline != _completions(self._run())  # fault has teeth
        assert baseline == _completions(
            self._run(kernel="heap", faults=faults)
        )

    @given(st.integers(2, 4))
    @settings(max_examples=6, deadline=None)
    def test_any_shape_calendar_matches_heap(self, leaves):
        messages = _workload(8, count=40)

        config = ClusterConfig(
            num_nodes=8, link_gbps=100.0, seed=5,
            topology=f"leaf-spine:leaves={leaves},spines=1",
        )
        heap, reference = (
            replay_on(kernel, lambda: EdmFabric(config).run(messages))
            for kernel in KERNELS
        )
        assert reference.incomplete == 0
        assert _completions(reference) == _completions(heap)

    def test_scenario_row_is_deterministic(self):
        base = scenario_by_name("edm_leafspine_corelink").scaled(
            num_nodes=8, message_count=160
        )
        serial = run_scenario(base)
        # The row reports the fault events that actually fired.
        summary = serial["fault_summary"]
        assert summary["faults_fired"] == len(summary["log"]) >= 1
        assert "planned" not in summary
        assert serial == run_scenario(base)
        assert serial == replay_on("reference", lambda: run_scenario(base))
