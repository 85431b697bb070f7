"""Tests for the incast and all-to-all shuffle workload shapes."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.shapes import IncastSpec, ShuffleSpec


def _incast_spec(**overrides):
    base = dict(
        num_nodes=8, link_gbps=100.0, load=0.6, message_count=120, degree=4
    )
    base.update(overrides)
    return IncastSpec(**base)


class TestIncast:
    def test_count_and_sorted_arrivals(self):
        messages = _incast_spec().materialize()
        assert len(messages) == 120
        arrivals = [m.arrival_ns for m in messages]
        assert arrivals == sorted(arrivals)

    def test_uids_are_zero_based_and_dense(self):
        messages = _incast_spec().materialize()
        assert sorted(m.uid for m in messages) == list(range(len(messages)))

    def test_deterministic_under_seed(self):
        a = _incast_spec(seed=7).materialize()
        b = _incast_spec(seed=7).materialize()
        assert a == b
        assert a != _incast_spec(seed=8).materialize()

    def test_write_incast_converges_on_victims(self):
        # Every event's messages share one destination (the victim).
        messages = _incast_spec(write_fraction=1.0).materialize()
        by_arrival = {}
        for m in messages:
            by_arrival.setdefault(m.arrival_ns, set()).add(m.dst)
            assert not m.is_read
        assert all(len(dsts) == 1 for dsts in by_arrival.values())

    def test_read_incast_fans_out_from_victim(self):
        messages = _incast_spec(write_fraction=0.0).materialize()
        by_arrival = {}
        for m in messages:
            by_arrival.setdefault(m.arrival_ns, set()).add(m.src)
            assert m.is_read
        assert all(len(srcs) == 1 for srcs in by_arrival.values())

    def test_rotating_victims_spread_over_nodes(self):
        messages = _incast_spec(message_count=200).materialize()
        assert len({m.dst for m in messages}) > 4

    def test_fixed_victim(self):
        messages = _incast_spec(
            rotate_victims=False, write_fraction=1.0
        ).materialize()
        assert {m.dst for m in messages} == {0}

    def test_degree_clamped_to_cluster(self):
        messages = _incast_spec(num_nodes=3, degree=10).materialize()
        assert messages  # degree clamps to n-1 instead of raising

    @pytest.mark.parametrize(
        "bad",
        [
            dict(num_nodes=2),
            dict(load=0.0),
            dict(load=1.5),
            dict(message_count=0),
            dict(size_bytes=0),
            dict(degree=1),
            dict(write_fraction=1.1),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(WorkloadError):
            _incast_spec(**bad)


def _shuffle_spec(**overrides):
    base = dict(num_nodes=6, link_gbps=100.0, load=0.5, rounds=10)
    base.update(overrides)
    return ShuffleSpec(**base)


class TestShuffle:
    def test_every_round_is_a_permutation(self):
        spec = _shuffle_spec()
        messages = spec.materialize()
        assert len(messages) == spec.message_count == 60
        rounds = {}
        for m in messages:
            rounds.setdefault(m.arrival_ns, []).append(m)
        for batch in rounds.values():
            assert sorted(m.src for m in batch) == list(range(6))
            assert sorted(m.dst for m in batch) == list(range(6))
            assert all(m.src != m.dst for m in batch)

    def test_strides_cycle_across_rounds(self):
        messages = _shuffle_spec().materialize()
        strides = set()
        for m in messages:
            strides.add((m.dst - m.src) % 6)
        assert strides == {1, 2, 3, 4, 5}

    def test_deterministic_under_seed(self):
        assert (
            _shuffle_spec(seed=3).materialize()
            == _shuffle_spec(seed=3).materialize()
        )

    def test_jitter_desynchronizes_rounds(self):
        spec = _shuffle_spec(jitter_ns=5.0, seed=1)
        messages = spec.materialize()
        assert len({m.arrival_ns for m in messages}) > spec.rounds

    def test_uids_zero_based(self):
        messages = _shuffle_spec().materialize()
        assert sorted(m.uid for m in messages) == list(range(len(messages)))

    @pytest.mark.parametrize(
        "bad",
        [
            dict(num_nodes=1),
            dict(rounds=0),
            dict(load=0.0),
            dict(size_bytes=-1),
            dict(jitter_ns=-1.0),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(WorkloadError):
            _shuffle_spec(**bad)
