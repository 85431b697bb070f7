"""Tests for workload generators: distributions, synthetic, YCSB, traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.distributions import (
    APP_CDFS,
    SizeCdf,
    app_cdf,
    fixed_size,
)
from repro.workloads.synthetic import SyntheticSpec, mean_wire_bytes, microbenchmark
from repro.workloads.traces import TraceSpec, all_apps
from repro.workloads.ycsb import (
    OpType,
    WORKLOAD_A,
    WORKLOAD_B,
    WORKLOAD_F,
    ZipfianKeyChooser,
    workload_by_name,
)


def _ycsb_ops(workload, count, seed):
    rng = np.random.default_rng(seed)
    return [workload.draw(rng.random()) for _ in range(count)]


class TestSizeCdf:
    def test_fixed_size_always_samples_same(self):
        cdf = fixed_size(64)
        rng = np.random.default_rng(0)
        assert all(cdf.sample(rng) == 64 for _ in range(50))

    def test_sampling_respects_cdf(self):
        cdf = SizeCdf(name="t", points=((10, 0.5), (100, 1.0)))
        rng = np.random.default_rng(1)
        samples = [cdf.sample(rng) for _ in range(4000)]
        small_fraction = samples.count(10) / len(samples)
        assert 0.45 < small_fraction < 0.55

    def test_mean_bytes(self):
        cdf = SizeCdf(name="t", points=((10, 0.5), (100, 1.0)))
        assert cdf.mean_bytes() == pytest.approx(55.0)

    def test_percentile(self):
        cdf = SizeCdf(name="t", points=((10, 0.5), (100, 1.0)))
        assert cdf.percentile(0.4) == 10
        assert cdf.percentile(0.9) == 100

    def test_app_cdfs_are_heavy_tailed(self):
        # §4.3.2: "heavy-tailed request size distribution".
        for name, cdf in APP_CDFS.items():
            assert cdf.is_heavy_tailed(), name

    def test_fixed_size_is_not_heavy_tailed(self):
        assert not fixed_size(64).is_heavy_tailed()

    def test_invalid_cdfs_rejected(self):
        with pytest.raises(WorkloadError):
            SizeCdf(name="bad", points=((10, 0.5), (5, 1.0)))  # sizes not rising
        with pytest.raises(WorkloadError):
            SizeCdf(name="bad", points=((10, 0.5),))  # doesn't reach 1

    def test_unknown_app_rejected(self):
        with pytest.raises(WorkloadError):
            app_cdf("nope")

    @given(st.integers(1, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_property_samples_within_support(self, seed):
        cdf = app_cdf("hadoop")
        rng = np.random.default_rng(seed)
        sample = cdf.sample(rng)
        assert sample in cdf.sizes


class TestSynthetic:
    def test_message_count_honored(self):
        msgs = microbenchmark(num_nodes=8, link_gbps=100.0, load=0.5,
                              message_count=500, seed=0)
        assert len(msgs) == 500

    def test_arrivals_sorted(self):
        msgs = microbenchmark(num_nodes=8, link_gbps=100.0, load=0.5,
                              message_count=500, seed=0)
        arrivals = [m.arrival_ns for m in msgs]
        assert arrivals == sorted(arrivals)

    def test_no_self_messages(self):
        msgs = microbenchmark(num_nodes=8, link_gbps=100.0, load=0.5,
                              message_count=1000, seed=0)
        assert all(m.src != m.dst for m in msgs)

    def test_offered_load_approximately_met(self):
        # Aggregate wire bits / (span * nodes * rate) should be near load.
        load = 0.6
        msgs = microbenchmark(num_nodes=16, link_gbps=100.0, load=load,
                              message_count=20000, seed=3)
        span = msgs[-1].arrival_ns
        wire = mean_wire_bytes(fixed_size(64)) * 8 * len(msgs)
        measured = wire / (span * 16 * 100.0)
        assert measured == pytest.approx(load, rel=0.1)

    def test_write_fraction_respected(self):
        msgs = microbenchmark(num_nodes=8, link_gbps=100.0, load=0.5,
                              message_count=4000, write_fraction=0.2, seed=0)
        writes = sum(1 for m in msgs if not m.is_read)
        assert 0.15 < writes / len(msgs) < 0.25

    def test_seed_reproducibility(self):
        a = microbenchmark(num_nodes=8, link_gbps=100.0, load=0.5,
                           message_count=100, seed=42)
        b = microbenchmark(num_nodes=8, link_gbps=100.0, load=0.5,
                           message_count=100, seed=42)
        assert [(m.src, m.dst, m.arrival_ns) for m in a] == [
            (m.src, m.dst, m.arrival_ns) for m in b
        ]

    def test_incast_component(self):
        spec = SyntheticSpec(
            num_nodes=16, link_gbps=100.0, load=0.5, message_count=2000,
            size_cdf=fixed_size(64), incast_fraction=0.5, incast_degree=8,
            seed=0,
        )
        msgs = spec.materialize()
        # Incast events create groups of simultaneous arrivals.
        from collections import Counter
        counts = Counter(m.arrival_ns for m in msgs)
        assert any(c >= 8 for c in counts.values())

    def test_invalid_specs_rejected(self):
        with pytest.raises(WorkloadError):
            SyntheticSpec(num_nodes=1, link_gbps=100.0, load=0.5,
                          message_count=10, size_cdf=fixed_size(64))
        with pytest.raises(WorkloadError):
            SyntheticSpec(num_nodes=4, link_gbps=100.0, load=1.5,
                          message_count=10, size_cdf=fixed_size(64))

    @pytest.mark.parametrize("gbps", [0.0, -1.0, math.nan, math.inf])
    def test_link_rate_must_be_finite_and_positive(self, gbps):
        with pytest.raises(WorkloadError, match="link rate must be finite and positive"):
            SyntheticSpec(num_nodes=4, link_gbps=gbps, load=0.5,
                          message_count=10, size_cdf=fixed_size(64))


class TestYcsb:
    def test_workload_mixes(self):
        # A: 50% writes, B: 5% writes, F: 33% writes (§4.2.2).
        for wl, expected in ((WORKLOAD_A, 0.5), (WORKLOAD_B, 0.05), (WORKLOAD_F, 0.33)):
            ops = _ycsb_ops(wl, count=6000, seed=1)
            writes = sum(1 for op in ops if op is not OpType.READ)
            assert writes / len(ops) == pytest.approx(expected, abs=0.03)

    def test_f_uses_rmw(self):
        ops = _ycsb_ops(WORKLOAD_F, count=2000, seed=1)
        assert OpType.READ_MODIFY_WRITE in ops
        assert OpType.UPDATE not in ops

    def test_draw_splits_the_unit_interval_by_mix(self):
        assert WORKLOAD_A.draw(0.0) is OpType.READ
        assert WORKLOAD_A.draw(0.5) is OpType.UPDATE
        assert WORKLOAD_B.draw(0.949) is OpType.READ
        assert WORKLOAD_B.draw(0.95) is OpType.UPDATE
        assert WORKLOAD_F.draw(0.669) is OpType.READ
        assert WORKLOAD_F.draw(0.67) is OpType.READ_MODIFY_WRITE

    def test_zipfian_skew(self):
        chooser = ZipfianKeyChooser(keyspace=1000, seed=0)
        from collections import Counter
        counts = Counter(chooser.next_key() for _ in range(20000))
        top_share = sum(c for _, c in counts.most_common(10)) / 20000
        assert top_share > 0.15  # the hot ten dominate

    def test_keys_in_range(self):
        chooser = ZipfianKeyChooser(keyspace=100, seed=0)
        assert all(0 <= chooser.next_key() < 100 for _ in range(1000))

    def test_workload_by_name(self):
        assert workload_by_name("a") is WORKLOAD_A
        with pytest.raises(WorkloadError):
            workload_by_name("Z")


class TestTraces:
    def test_all_five_apps(self):
        assert all_apps() == ["hadoop", "spark", "spark_sql", "graphlab", "memcached"]

    def test_trace_has_equal_read_write_mix(self):
        trace = TraceSpec(
        app="spark", num_nodes=8, link_gbps=100.0, load=0.5,
        message_count=4000, seed=0,
    ).materialize()
        reads = sum(1 for m in trace if m.is_read)
        assert 0.45 < reads / len(trace) < 0.55

    @pytest.mark.parametrize("bad", [
        {"app": "nope"},
        {"num_nodes": 1},
        {"link_gbps": math.nan},
        {"link_gbps": 0.0},
        {"load": 5.0},
        {"message_count": -1},
    ])
    def test_invalid_trace_rejected_when_built(self, bad):
        fields = dict(app="spark", num_nodes=8, link_gbps=100.0, load=0.5,
                      message_count=100, seed=0)
        fields.update(bad)
        with pytest.raises(WorkloadError):
            TraceSpec(**fields)

    def test_trace_sizes_follow_app_cdf(self):
        trace = TraceSpec(
        app="graphlab", num_nodes=8, link_gbps=100.0, load=0.5,
        message_count=2000, seed=0,
    ).materialize()
        support = set(app_cdf("graphlab").sizes)
        assert all(m.size_bytes in support for m in trace)
