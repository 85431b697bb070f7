"""The unified streaming workload API (repro.workloads.api/streaming).

Covers the protocol surface (RateShape, substreams, the spec lookup),
bit-identity of the streams against the legacy generator algorithms
(copied here verbatim as reference implementations), and O(1) streaming
memory.
"""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.fabrics.base import OfferedMessage
from repro.mac.frame import message_wire_bytes
from repro.sim.rng import make_rng
from repro.workloads.api import RateShape, substream, workload_from_spec
from repro.workloads.distributions import fixed_size
from repro.workloads.shapes import IncastSpec, ShuffleSpec
from repro.workloads.streaming import YcsbSpec
from repro.workloads.synthetic import SyntheticSpec
from repro.workloads.traces import TraceSpec
from repro.workloads.ycsb import OpType, YcsbOp, ZipfianKeyChooser, workload_by_name


# --------------------------------------------------------------------------- #
# Reference implementations: the legacy (pre-streaming) generator algorithms, #
# copied verbatim so bit-identity is pinned against the original code, not    #
# against the stream's own output.                                            #
# --------------------------------------------------------------------------- #


def _ref_incast(spec):
    rng = make_rng(spec.seed)
    uids = itertools.count()
    degree = min(spec.degree, spec.num_nodes - 1)
    event_drain_ns = (
        degree * message_wire_bytes(spec.size_bytes) * 8.0 / spec.link_gbps
    )
    event_gap_ns = event_drain_ns / spec.load
    events = -(-spec.message_count // degree)
    messages = []
    t = 0.0
    for event in range(events):
        t += float(rng.exponential(event_gap_ns))
        victim = event % spec.num_nodes if spec.rotate_victims else 0
        peers = rng.choice(
            [n for n in range(spec.num_nodes) if n != victim],
            size=degree, replace=False,
        )
        event_is_read = bool(rng.random() >= spec.write_fraction)
        for peer in peers:
            if event_is_read:
                messages.append(OfferedMessage(
                    src=victim, dst=int(peer), size_bytes=spec.size_bytes,
                    arrival_ns=t, is_read=True, uid=next(uids),
                ))
            else:
                messages.append(OfferedMessage(
                    src=int(peer), dst=victim, size_bytes=spec.size_bytes,
                    arrival_ns=t, is_read=False, uid=next(uids),
                ))
    messages.sort(key=lambda m: m.arrival_ns)
    return messages[: spec.message_count]


def _ref_shuffle(spec):
    rng = make_rng(spec.seed)
    uids = itertools.count()
    transfer_ns = message_wire_bytes(spec.size_bytes) * 8.0 / spec.link_gbps
    round_gap_ns = transfer_ns / spec.load
    messages = []
    n = spec.num_nodes
    for r in range(spec.rounds):
        start = (r + 1) * round_gap_ns
        stride = (r % (n - 1)) + 1
        for src in range(n):
            dst = (src + stride) % n
            jitter = (
                float(rng.uniform(0.0, spec.jitter_ns)) if spec.jitter_ns else 0.0
            )
            is_read = bool(rng.random() >= spec.write_fraction)
            messages.append(OfferedMessage(
                src=src, dst=dst, size_bytes=spec.size_bytes,
                arrival_ns=start + jitter, is_read=is_read,
                uid=next(uids),
            ))
    messages.sort(key=lambda m: (m.arrival_ns, m.uid))
    return messages


def _ref_ycsb(spec):
    mix = workload_by_name(spec.workload)
    rng = make_rng(spec.seed)
    chooser = ZipfianKeyChooser(
        spec.keyspace, spec.theta, seed=int(rng.integers(0, 2**31))
    )
    ops = []
    for _ in range(spec.message_count):
        u = rng.random()
        if u < mix.read_fraction:
            op = OpType.READ
        elif u < mix.read_fraction + mix.update_fraction:
            op = OpType.UPDATE
        else:
            op = OpType.READ_MODIFY_WRITE
        ops.append(YcsbOp(op=op, key=chooser.next_key()))
    return ops


# --------------------------------------------------------------------------- #
# RateShape / substreams                                                      #
# --------------------------------------------------------------------------- #


class TestRateShape:
    def test_steady_is_flat(self):
        shape = RateShape()
        assert all(shape.factor(t) == 1.0 for t in (0.0, 1e3, 1e9))

    def test_diurnal_swings_within_amplitude(self):
        shape = RateShape(kind="diurnal", period_ns=1000.0, amplitude=0.8)
        factors = [shape.factor(t) for t in range(0, 2000, 10)]
        assert min(factors) >= 0.2 - 1e-9
        assert max(factors) <= 1.8 + 1e-9
        assert max(factors) > 1.5  # actually reaches near the peak

    def test_bursty_square_wave(self):
        shape = RateShape(
            kind="bursty", period_ns=100.0, burst_factor=4.0, duty=0.25
        )
        assert shape.factor(10.0) == 4.0  # inside the burst window
        assert shape.factor(50.0) == 1.0  # outside
        assert shape.factor(110.0) == 4.0  # periodic

    @pytest.mark.parametrize(
        "bad",
        [
            dict(kind="square"),
            dict(period_ns=0.0),
            dict(amplitude=1.0),
            dict(burst_factor=0.5),
            dict(duty=0.0),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(WorkloadError):
            RateShape(**bad)


class TestSubstream:
    def test_reproducible_and_independent(self):
        a = substream(3, 1).random(4).tolist()
        assert a == substream(3, 1).random(4).tolist()
        assert a != substream(3, 2).random(4).tolist()
        assert a != substream(4, 1).random(4).tolist()

    def test_none_seed_gives_fresh_entropy(self):
        assert substream(None, 1).random() != substream(None, 1).random()

    def test_negative_seed_rejected(self):
        with pytest.raises(WorkloadError, match="non-negative"):
            substream(-1, 0)


# --------------------------------------------------------------------------- #
# Spec registry                                                               #
# --------------------------------------------------------------------------- #


class TestRegistry:
    def test_unregistered_spec_type_rejected(self):
        with pytest.raises(WorkloadError, match="no workload for spec type"):
            workload_from_spec(object())


# --------------------------------------------------------------------------- #
# Bit-identity against the legacy algorithms                                  #
# --------------------------------------------------------------------------- #


class TestBitIdentity:
    @given(
        seed=st.integers(0, 2**31 - 1),
        num_nodes=st.integers(3, 12),
        degree=st.integers(2, 8),
        write_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_incast_stream_matches_reference(
        self, seed, num_nodes, degree, write_fraction
    ):
        spec = IncastSpec(
            num_nodes=num_nodes, link_gbps=100.0, load=0.6,
            message_count=90, degree=degree,
            write_fraction=write_fraction, seed=seed,
        )
        assert workload_from_spec(spec).materialize() == _ref_incast(spec)

    @given(
        seed=st.integers(0, 2**31 - 1),
        num_nodes=st.integers(2, 10),
        rounds=st.integers(1, 12),
        jitter_ns=st.sampled_from([0.0, 5.0, 500.0, 5000.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_shuffle_stream_matches_reference(
        self, seed, num_nodes, rounds, jitter_ns
    ):
        spec = ShuffleSpec(
            num_nodes=num_nodes, link_gbps=100.0, load=0.5, rounds=rounds,
            jitter_ns=jitter_ns, write_fraction=0.5, seed=seed,
        )
        assert workload_from_spec(spec).materialize() == _ref_shuffle(spec)

    @given(
        seed=st.integers(0, 2**31 - 1),
        mix=st.sampled_from(["A", "B", "F"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_ycsb_stream_matches_reference(self, seed, mix):
        spec = YcsbSpec(workload=mix, message_count=300, keyspace=500, seed=seed)
        assert workload_from_spec(spec).materialize() == _ref_ycsb(spec)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_synthetic_stream_is_canonical(self, seed):
        # The streaming synthetic generator *defines* the canonical
        # output (the legacy shared-RNG sort cannot stream); pin its
        # contract: deterministic, arrival-sorted, dense 0-based uids,
        # exact count, no self-messages.
        spec = SyntheticSpec(
            num_nodes=6, link_gbps=100.0, load=0.5, message_count=400,
            size_cdf=fixed_size(64), incast_fraction=0.25, seed=seed,
        )
        msgs = workload_from_spec(spec).materialize()
        assert msgs == workload_from_spec(spec).materialize()
        assert len(msgs) == 400
        arrivals = [m.arrival_ns for m in msgs]
        assert arrivals == sorted(arrivals)
        assert [m.uid for m in msgs] == list(range(400))
        assert all(m.src != m.dst for m in msgs)

    def test_iterating_twice_yields_same_sequence(self):
        w = workload_from_spec(
            TraceSpec(
                app="hadoop", num_nodes=8, link_gbps=100.0, load=0.5,
                message_count=200, seed=2,
            )
        )
        assert list(w) == list(w)


# --------------------------------------------------------------------------- #
# O(1) streaming memory                                                       #
# --------------------------------------------------------------------------- #


def _spec_with_count(count):
    return SyntheticSpec(
        num_nodes=8, link_gbps=100.0, load=0.6, message_count=count,
        size_cdf=fixed_size(64), incast_fraction=0.25, seed=0,
    )


def _peak_during(fn):
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestStreamingMemory:
    def test_streaming_peak_is_flat_in_message_count(self):
        def consume(count):
            def run():
                n = 0
                for _ in workload_from_spec(_spec_with_count(count)).arrivals():
                    n += 1
                assert n == count
            return run

        small = _peak_during(consume(2_000))
        large = _peak_during(consume(24_000))
        # 12x the messages must not grow peak memory by more than a small
        # constant slack (allocator noise) — the stream holds per-source
        # substream state only, never the workload.
        assert large < 2 * small + 64 * 1024

    def test_streaming_beats_materializing(self):
        count = 24_000
        streamed = _peak_during(
            lambda: sum(1 for _ in workload_from_spec(_spec_with_count(count)))
        )
        materialized = _peak_during(
            lambda: workload_from_spec(_spec_with_count(count)).materialize()
        )
        assert streamed < materialized / 4
