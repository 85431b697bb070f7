"""Tests for the baseline fabrics and the Figure 8 harness (small scale)."""

import math

import pytest

from repro.errors import FabricError

from repro.fabrics import (
    ClusterConfig,
    CxlFabric,
    DctcpFabric,
    EdmFabric,
    FastpassFabric,
    IrdFabric,
    PfabricFabric,
    PfcFabric,
    all_fabrics,
)
from repro.fabrics.base import FabricResult, OfferedMessage, dominant_sizes
from repro.workloads import microbenchmark

CONFIG = ClusterConfig(num_nodes=8, link_gbps=100.0)


def small_workload(load=0.5, count=600, seed=2):
    return microbenchmark(num_nodes=8, link_gbps=100.0, load=load,
                          message_count=count, seed=seed)


class TestHarness:
    def test_all_fabrics_returns_seven(self):
        fabrics = all_fabrics(CONFIG)
        assert [f.name for f in fabrics] == [
            "EDM", "IRD", "pFabric", "PFC", "DCTCP", "CXL", "Fastpass",
        ]

    def test_dominant_sizes(self):
        msgs = [
            OfferedMessage(src=0, dst=1, size_bytes=64, arrival_ns=0, is_read=True),
            OfferedMessage(src=0, dst=1, size_bytes=64, arrival_ns=1, is_read=True),
            OfferedMessage(src=0, dst=1, size_bytes=128, arrival_ns=2, is_read=False),
        ]
        assert dominant_sizes(msgs) == (64, 128)

    def test_result_normalization_requires_baselines(self):
        result = FabricResult(fabric="x")
        result.records.append(
            type("R", (), {"latency_ns": 10.0, "message": None})  # not used
        )
        with pytest.raises(Exception):
            result.mean_normalized_latency()


#: Cluster fields that once ran to NaN completion times (or ran at all
#: with a negative propagation delay) instead of failing at config time.
BAD_CLUSTER_FIELDS = [
    {"propagation_ns": math.nan},
    {"propagation_ns": math.inf},
    {"propagation_ns": -1.0},
    {"link_gbps": math.nan},
    {"link_gbps": math.inf},
    {"chunk_bytes": 0},
    {"max_active_per_pair": 0},
]


@pytest.mark.parametrize("fabric_cls", [
    EdmFabric, IrdFabric, PfabricFabric, PfcFabric,
    DctcpFabric, CxlFabric, FastpassFabric,
])
@pytest.mark.parametrize("bad", BAD_CLUSTER_FIELDS, ids=str)
def test_bad_cluster_config_never_reaches_the_fabric(fabric_cls, bad):
    probe = [OfferedMessage(src=0, dst=1, size_bytes=64, arrival_ns=0.0,
                            is_read=True, uid=0)]
    with pytest.raises(FabricError):
        fabric_cls(ClusterConfig(num_nodes=4, **bad)).run(probe)


class TestEveryFabricCompletes:
    @pytest.mark.parametrize("fabric_cls", [
        EdmFabric, IrdFabric, PfabricFabric, PfcFabric,
        DctcpFabric, CxlFabric, FastpassFabric,
    ])
    def test_all_messages_complete(self, fabric_cls):
        fabric = fabric_cls(CONFIG)
        msgs = small_workload()
        result = fabric.run(msgs, deadline_ns=500_000_000)
        assert result.incomplete == 0
        assert len(result.records) == len(msgs)

    @pytest.mark.parametrize("fabric_cls", [
        EdmFabric, IrdFabric, DctcpFabric, CxlFabric,
    ])
    def test_unloaded_baselines_positive(self, fabric_cls):
        fabric = fabric_cls(CONFIG)
        assert fabric.measure_unloaded(64, is_read=True) > 0
        assert fabric.measure_unloaded(64, is_read=False) > 0

    def test_latencies_are_causal(self):
        fabric = EdmFabric(CONFIG)
        result = fabric.run(small_workload())
        assert all(r.latency_ns > 0 for r in result.records)


class TestQualitativeShape:
    """The paper's Figure 8a orderings, at test-sized scale."""

    def test_edm_near_unloaded_at_moderate_load(self):
        fabric = EdmFabric(CONFIG)
        result = fabric.run_with_baselines(small_workload(load=0.5))
        assert result.mean_normalized_latency() < 1.5

    def test_edm_beats_reactive_at_high_load(self):
        msgs = microbenchmark(num_nodes=8, link_gbps=100.0, load=0.85,
                              message_count=4000, seed=2)
        edm = EdmFabric(CONFIG).run_with_baselines(msgs, deadline_ns=1_000_000_000)
        dctcp = DctcpFabric(CONFIG).run_with_baselines(msgs, deadline_ns=1_000_000_000)
        assert edm.mean_normalized_latency() < dctcp.mean_normalized_latency()

    def test_dctcp_equals_pfabric_on_single_frame_flows(self):
        # §4.3.1: "their performance is identical due to uniformly
        # single-packet flows in the workload".
        msgs = small_workload(load=0.7, count=2000)
        d = DctcpFabric(CONFIG).run_with_baselines(msgs, deadline_ns=1_000_000_000)
        p = PfabricFabric(CONFIG).run_with_baselines(msgs, deadline_ns=1_000_000_000)
        assert d.mean_normalized_latency() == pytest.approx(
            p.mean_normalized_latency(), rel=0.05
        )

    def test_fastpass_far_from_unloaded_even_at_low_load(self):
        # The central server's link is the bottleneck at any load.
        msgs = small_workload(load=0.3, count=2000)
        fp = FastpassFabric(CONFIG).run_with_baselines(msgs, deadline_ns=1_000_000_000)
        assert fp.mean_normalized_latency() > 3.0

    def test_lossless_fabrics_never_drop(self):
        # PFC and CXL pause/backpressure instead of dropping: every
        # message completes without the RTO path.
        for cls in (PfcFabric, CxlFabric):
            result = cls(CONFIG).run(small_workload(load=0.8, count=2000),
                                     deadline_ns=1_000_000_000)
            assert result.incomplete == 0


class TestEdmKnobs:
    def test_fcfs_policy_runs(self):
        from repro.core.scheduler import Policy
        fabric = EdmFabric(CONFIG, policy=Policy.FCFS)
        result = fabric.run(small_workload(count=300))
        assert result.incomplete == 0

    def test_single_iteration_pim_still_completes(self):
        fabric = EdmFabric(CONFIG, max_iterations=1)
        result = fabric.run(small_workload(count=300))
        assert result.incomplete == 0

    def test_no_early_release_is_slower(self):
        msgs = microbenchmark(num_nodes=8, link_gbps=100.0, load=0.8,
                              message_count=2000, seed=2)
        fast = EdmFabric(CONFIG, early_release=True).run_with_baselines(msgs)
        slow = EdmFabric(CONFIG, early_release=False).run_with_baselines(msgs)
        assert slow.mean_normalized_latency() >= fast.mean_normalized_latency()
