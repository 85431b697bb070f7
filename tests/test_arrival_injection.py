"""``Simulator.inject_arrivals``: one pending arrival, ``post_at`` keys.

The injector gives each arrival the key a loop of ``post_at`` over the
stable-sorted items would give it, with every arrival queued up front.
These tests pin that it queues only the next arrival, that it rejects bad
times before anything runs, and that every fabric run loop built on it
replays that up-front reference exactly — records, incomplete count and
stats (``sim_events`` included) — on the heap kernel and on the
sorted-list reference.
"""

from __future__ import annotations

import math
from functools import partial

import pytest
from reference_kernel import each_kernel

from repro.errors import SimulationError
from repro.fabrics import fabric_by_name
from repro.fabrics.base import ClusterConfig
from repro.sim.engine import Simulator
from repro.workloads import SyntheticSpec
from repro.workloads.distributions import fixed_size


def _batch_inject(self, items, launch, *, key):
    """The reference: every arrival queued up front by a loop of ``post_at``."""
    ordered = sorted(items, key=key)
    for item in ordered:
        self.post_at(key(item), partial(launch, item))
    return len(ordered)


def test_one_arrival_pending_at_a_time(kernel):
    sim = Simulator()
    pending = []
    sim.inject_arrivals(
        [float(t) for t in range(1_000)],
        lambda _: pending.append(sim.pending_events),
        key=float,
    )
    assert sim.pending_events == 1
    sim.run()
    assert pending[0] == 1
    assert max(pending) == 1 and pending[-1] == 0
    assert len(pending) == 1_000


def test_ties_and_later_seqs_match_a_post_at_loop(kernel):
    """Arrivals interleave with same-time posts exactly as up-front posts do."""

    def trace(inject):
        sim, seen = Simulator(), []
        sim.post_at(2.0, lambda: seen.append("before"))
        times = [3.0, 1.0, 2.0, 2.0, 3.0, 0.0]  # unsorted, with ties

        def launch(index):
            seen.append(index)
            if index % 2:
                sim.post_at(3.0, lambda: seen.append(f"post{index}"))

        count = inject(sim, range(len(times)), launch, key=times.__getitem__)
        sim.post_at(2.0, lambda: seen.append("after"))
        sim.run()
        return count, seen, sim.events_processed

    injected = trace(Simulator.inject_arrivals)
    assert injected == trace(_batch_inject)
    assert injected[0] == 6


@pytest.mark.parametrize("bad", [5.0, math.inf, math.nan])
@each_kernel
def test_bad_arrival_time_rejected_before_any_event(kernel, bad):
    sim = Simulator()
    sim.run(until=10.0)
    launched = []
    with pytest.raises(SimulationError):
        sim.inject_arrivals([20.0, bad, 30.0], launched.append, key=float)
    assert sim.pending_events == 0
    sim.run()
    assert launched == [] and sim.events_processed == 0


def test_empty_injection_is_a_no_op():
    sim, seen = Simulator(), []
    assert sim.inject_arrivals([], seen.append, key=float) == 0
    assert sim.pending_events == 0


def _messages(seed):
    spec = SyntheticSpec(
        num_nodes=16,
        link_gbps=100.0,
        load=0.9,
        message_count=400,
        size_cdf=fixed_size(1500),
        write_fraction=0.5,
        seed=seed,
        incast_fraction=0.25,
        incast_degree=8,
    )
    return spec.materialize()


def _run(fabric, messages, deadline_ns):
    config = ClusterConfig(num_nodes=16, link_gbps=100.0, seed=3)
    result = fabric_by_name(fabric, config).run(messages, deadline_ns=deadline_ns)
    records = [(r.message.uid, r.completed_at) for r in result.records]
    return records, result.incomplete, result.stats


@pytest.mark.parametrize("cut", [False, True])
@each_kernel
@pytest.mark.parametrize("fabric", ["EDM", "PFC", "IRD", "Fastpass"])
def test_fabric_run_matches_batch_reference(fabric, kernel, cut, monkeypatch):
    messages = _messages(seed=5)
    arrivals = sorted(m.arrival_ns for m in messages)
    # A deadline inside the arrival span leaves later arrivals unlaunched.
    deadline = arrivals[len(arrivals) * 3 // 5] if cut else None
    injected = _run(fabric, messages, deadline)
    monkeypatch.setattr(Simulator, "inject_arrivals", _batch_inject)
    assert injected == _run(fabric, messages, deadline)
    records, incomplete, _ = injected
    assert len(records) + incomplete == len(messages)
    assert (incomplete > 0) == cut
