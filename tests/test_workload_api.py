"""The unified streaming workload API (repro.workloads.api and the specs).

Covers the protocol surface (RateShape, substreams), each generator's
pinned output, bit-identity of the streams against the legacy generator
algorithms (copied here verbatim as reference implementations), and O(1)
streaming memory.
"""

import hashlib
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.fabrics.base import OfferedMessage
from repro.mac.frame import message_wire_bytes
from repro.sim.rng import make_rng
from repro.workloads.api import RateShape, substream
from repro.workloads.distributions import app_cdf, fixed_size
from repro.workloads.shapes import IncastSpec, ShuffleSpec
from repro.workloads.synthetic import SyntheticSpec
from repro.workloads.traces import TraceSpec


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
        assert spec.materialize() == _ref_incast(spec)

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
        assert spec.materialize() == _ref_shuffle(spec)

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
        msgs = spec.materialize()
        assert msgs == spec.materialize()
        assert len(msgs) == 400
        arrivals = [m.arrival_ns for m in msgs]
        assert arrivals == sorted(arrivals)
        assert [m.uid for m in msgs] == list(range(400))
        assert all(m.src != m.dst for m in msgs)

    def test_iterating_twice_yields_same_sequence(self):
        w = TraceSpec(
            app="hadoop", num_nodes=8, link_gbps=100.0, load=0.5,
            message_count=200, seed=2,
        )
        assert list(w.arrivals()) == list(w.arrivals())


# --------------------------------------------------------------------------- #
# Pinned output: the sha256 of every generator's stream at two seeds          #
# --------------------------------------------------------------------------- #


def _pinned_spec(name, seed):
    if name == "synthetic_hadoop":
        return SyntheticSpec(
            num_nodes=8, link_gbps=100.0, load=0.6, message_count=600,
            size_cdf=app_cdf("hadoop"), incast_fraction=0.25, seed=seed,
        )
    if name == "trace_memcached":
        return TraceSpec(
            app="memcached", num_nodes=8, link_gbps=100.0, load=0.5,
            message_count=600, seed=seed,
        )
    if name.startswith("incast_"):
        return IncastSpec(
            num_nodes=8, link_gbps=100.0, load=0.6, message_count=300,
            degree=4, write_fraction=0.5, seed=seed,
            rotate_victims=name == "incast_rotating",
        )
    # Jitter (1.5 us) exceeds the round gap, so the lookahead heap reorders.
    return ShuffleSpec(
        num_nodes=6, link_gbps=100.0, load=0.5, rounds=40,
        jitter_ns=1500.0, write_fraction=0.5, seed=seed,
    )


PINNED_DIGESTS = {
    ("synthetic_hadoop", 1): "d2ed2bf7fc247ec65b94ff665d91f09e1b963edfe7272791ea45680b719f5f15",
    ("trace_memcached", 1): "63e0bb4c2ab03e07a3bf7546269ddeda8bfbde12e84c9cba881bf1112c44b800",
    ("incast_rotating", 1): "03bf51247962673fa0cfd6862f47eb0bae0a903a76f8e272bb41acd3e98e86f8",
    ("incast_fixed", 1): "8a4910603babd7986529a9457a92b5962757871cc7938f067cb487e64a5e11f5",
    ("shuffle_jitter", 1): "98e0f265e56e29d0c1f885b5170d5fb9a56df214da3f7743c8156fb34b4e7f55",
    ("synthetic_hadoop", 2): "a5213ce09f2ccf2232a006b75da83623817131a78ce93b30862ce6d22440857e",
    ("trace_memcached", 2): "d9662f0c39ed5b3ffd7bb4bd83f2e6ff039cca698cced65cfa84c82bfc8b4f70",
    ("incast_rotating", 2): "eb9b5aef1ecedc457716f0161d3500f5c5605fca46a79e8492a1c4deea237c2c",
    ("incast_fixed", 2): "958cc32689c982fd86562f2391b7a81a9bb9b108fb99c098fdfc6bda9da7a3f4",
    ("shuffle_jitter", 2): "b749b003546a00e4641ae7b4e613334ab530c598b4e9913d13711f734faf3d2d",
}


@pytest.mark.parametrize("name,seed", sorted(PINNED_DIGESTS))
def test_stream_matches_pinned_digest(name, seed):
    messages = _pinned_spec(name, seed).materialize()
    rows = [
        (m.src, m.dst, m.size_bytes, repr(m.arrival_ns), m.is_read, m.uid)
        for m in messages
    ]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == PINNED_DIGESTS[(name, seed)]


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
                for _ in _spec_with_count(count).arrivals():
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
            lambda: sum(1 for _ in _spec_with_count(count).arrivals())
        )
        materialized = _peak_during(
            lambda: _spec_with_count(count).materialize()
        )
        assert streamed < materialized / 4
