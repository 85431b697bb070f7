"""Tests for notification queues, the PIM port-word encoder, and the grant engine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import (
    CentralScheduler,
    Demand,
    NotificationQueueBank,
    PimMatcher,
    Policy,
    SchedulerConfig,
    priority_of,
)
from repro.core.messages import Grant
from repro.errors import SchedulerError
from repro.phy.encoder import block_count_for_message


def demand(src, dst, size=64, t=0.0, mid=0, response=False):
    return Demand(
        src=src, dst=dst, message_id=mid, total_bytes=size, notified_at=t,
        message_uid=src * 100000 + dst * 1000 + mid,
        carried_request="rreq" if response else None,
    )


def one_round(bank, busy_src=0, busy_dst=0):
    """The destination a single PIM iteration matches, or None."""
    matches = PimMatcher(bank, max_iterations=1).run(busy_src, busy_dst).matches
    assert len(matches) <= 1
    return matches[0].dst if matches else None


def word(ports):
    return sum(1 << p for p in ports)


class TestPriorityEncoder:
    """§3.1.2's priority encoder is the PIM walk over int words of port bits.

    Each case has a single source requested by several destinations, so
    one PIM iteration resolves exactly one winner, the source's encoder
    output: the best priority, ties going to the first set bit.
    """

    def test_first_set_bit_wins(self):
        bank = NotificationQueueBank(num_ports=4)
        bank.add(demand(3, 1, mid=0))
        bank.add(demand(3, 2, mid=1))
        assert one_round(bank) == 1

    def test_all_clear_returns_none(self):
        bank = NotificationQueueBank(num_ports=4)
        bank.add(demand(3, 1))
        result = PimMatcher(bank).run(busy_src=word([3]))
        assert result.matches == [] and result.iterations == 0

    def test_source_array_resolves_best_priority(self):
        bank = NotificationQueueBank(num_ports=4, policy=Policy.FCFS)
        for dst, prio in ((1, 50.0), (2, 10.0), (3, 30.0)):
            bank.add(demand(0, dst, t=prio, mid=dst))
        # Destination 3 is busy, so only 1 and 2 raise their requests.
        assert one_round(bank, busy_dst=word([3])) == 2  # lowest value wins

    def test_update_to_none_removes(self):
        bank = NotificationQueueBank(num_ports=4)
        d = demand(0, 1)
        bank.add(d)
        assert bank._req[1] == word([0]) and bank._from[0] == word([1])
        bank.remove(d)
        assert bank._req[1] == bank._from[0] == bank._nonempty == 0
        assert one_round(bank) is None


def brute_force_encode(bits, output_count):
    """The first ``output_count`` set indices, padded with None."""
    places = [i for i, bit in enumerate(bits) if bit]
    return (places + [None] * output_count)[:output_count]


class TestEncoderOracle:
    """The PIM word walk against a brute-force encoder.

    ``output_count`` repeats the resolution, dropping each winner's
    demand before the next: the sequence of winners must be the set
    requests in priority order.  Source ``input_width`` is the resolving
    source; in the array test, source ``input_width + 1`` is busy and
    holds better-priority demands the walk must skip.
    """

    @pytest.mark.parametrize("input_width", [1, 5, 16, 23, 24])
    @pytest.mark.parametrize("output_count", [1, 3, 4])
    def test_priority_encode(self, input_width, output_count):
        rng = random.Random(input_width + output_count)
        src = input_width
        for _ in range(50):
            requests = rng.randrange(2 ** input_width)
            bits = [bool(requests >> i & 1) for i in range(input_width)]
            bank = NotificationQueueBank(num_ports=input_width + 1)
            demands = {}
            for dst in range(input_width):
                if bits[dst]:
                    demands[dst] = demand(src, dst, mid=dst)
                    bank.add(demands[dst])
            winners = []
            for _ in range(output_count):
                winner = one_round(bank)
                winners.append(winner)
                if winner is not None:
                    bank.remove(demands[winner])
            assert winners == brute_force_encode(bits, output_count)

    @pytest.mark.parametrize("input_width", [5, 16, 23, 24])
    @pytest.mark.parametrize("output_count", [1, 3, 4])
    def test_source_request_array(self, input_width, output_count):
        rng = random.Random(100 * input_width + output_count)
        src, noise = input_width, input_width + 1
        for _ in range(50):
            bank = NotificationQueueBank(num_ports=input_width + 2, policy=Policy.FCFS)
            # Priorities from a small range, so ties (to the lower port)
            # are common.
            registered = {}
            for dst in rng.sample(range(input_width), rng.randrange(input_width)):
                registered[dst] = demand(src, dst, t=float(rng.randrange(1, 4)), mid=dst)
                bank.add(registered[dst])
                if rng.random() < 0.3:
                    bank.add(demand(noise, dst, t=0.0, mid=dst))
            requested = {d for d in registered if rng.random() < 0.5}
            idle = word(set(range(input_width)) - requested)
            order = sorted(requested, key=lambda d: (registered[d].notified_at, d))
            expected = (order + [None] * output_count)[:output_count]
            winners = []
            for _ in range(output_count):
                winner = one_round(bank, busy_src=word([noise]), busy_dst=idle)
                winners.append(winner)
                if winner is not None:
                    bank.remove(registered[winner])
            assert winners == expected

    def test_source_request_array_needs_two_ports(self):
        with pytest.raises(SchedulerError):
            NotificationQueueBank(num_ports=1)


class TestPolicies:
    def test_fcfs_priority_is_notification_time(self):
        d = demand(0, 1, t=42.0)
        assert priority_of(Policy.FCFS, d) == 42.0

    def test_srpt_priority_is_remaining_bytes(self):
        d = demand(0, 1, size=512)
        assert priority_of(Policy.SRPT, d) == 512.0

    def test_policy_for_workload(self):
        from repro.core.scheduler import policy_for_workload
        assert policy_for_workload(heavy_tailed=True) == Policy.SRPT
        assert policy_for_workload(heavy_tailed=False) == Policy.FCFS


class TestNotificationQueueBank:
    def test_x_bound_per_pair(self):
        bank = NotificationQueueBank(num_ports=4, max_active_per_pair=2)
        bank.add(demand(0, 1, mid=0))
        bank.add(demand(0, 1, mid=1))
        assert not bank.can_accept(0, 1)
        with pytest.raises(SchedulerError):
            bank.add(demand(0, 1, mid=2))

    def test_response_direction_counts_separately(self):
        # A host's writes and another host's read responses may share a
        # port pair; each direction gets its own X budget.
        bank = NotificationQueueBank(num_ports=4, max_active_per_pair=1)
        bank.add(demand(0, 1, mid=0))
        bank.add(demand(0, 1, mid=1, response=True))
        assert bank.pair_count(0, 1) == 1
        assert bank.pair_count(0, 1, is_response=True) == 1

    def test_remove_frees_budget(self):
        bank = NotificationQueueBank(num_ports=4, max_active_per_pair=1)
        d = demand(0, 1)
        bank.add(d)
        bank.remove(d)
        assert bank.can_accept(0, 1)

    def test_best_eligible_respects_filter(self):
        bank = NotificationQueueBank(num_ports=4, policy=Policy.SRPT)
        bank.add(demand(0, 3, size=100))
        bank.add(demand(1, 3, size=10))
        busy = {1}
        best = bank.best_eligible(3, lambda s: s not in busy)
        assert best.src == 0

    def test_srpt_orders_by_remaining(self):
        bank = NotificationQueueBank(num_ports=4, policy=Policy.SRPT)
        bank.add(demand(0, 3, size=100, mid=0))
        bank.add(demand(1, 3, size=10, mid=1))
        assert bank.best_priority(3) == 10.0

    def test_reprioritize_after_partial_grant(self):
        bank = NotificationQueueBank(num_ports=4, policy=Policy.SRPT)
        big = demand(0, 3, size=1000, mid=0)
        small = demand(1, 3, size=500, mid=1)
        bank.add(big)
        bank.add(small)
        big.remaining_bytes = 100
        bank.reprioritize(big)
        assert bank.best_eligible(3, lambda s: True) is big


class TestPim:
    def test_simple_match(self):
        bank = NotificationQueueBank(num_ports=4)
        bank.add(demand(0, 1))
        matcher = PimMatcher(bank)
        result = matcher.run()
        assert result.pairs() == {(0, 1, False)}
        assert result.iterations == 1

    def test_matching_is_a_matching(self):
        # No source or destination appears twice.
        bank = NotificationQueueBank(num_ports=8)
        for s in range(4):
            for d in range(4, 8):
                bank.add(demand(s, d, size=64 + s + d, mid=d - 4))
        result = PimMatcher(bank).run()
        sources = [m.src for m in result.matches]
        dests = [m.dst for m in result.matches]
        assert len(sources) == len(set(sources))
        assert len(dests) == len(set(dests))

    def test_matching_is_maximal(self):
        # 4 sources x 4 destinations, full demand: a maximal matching
        # matches all 4 destinations.
        bank = NotificationQueueBank(num_ports=8)
        for s in range(4):
            for d in range(4, 8):
                bank.add(demand(s, d, mid=d - 4))
        result = PimMatcher(bank).run()
        assert len(result.matches) == 4

    def test_busy_ports_excluded(self):
        bank = NotificationQueueBank(num_ports=4)
        bank.add(demand(0, 1))
        bank.add(demand(2, 3))
        result = PimMatcher(bank).run(busy_src=word([0]))
        assert result.pairs() == {(2, 3, False)}

    def test_priority_resolves_source_conflict(self):
        # Two destinations both want source 0; SRPT prefers the smaller.
        bank = NotificationQueueBank(num_ports=4, policy=Policy.SRPT)
        bank.add(demand(0, 1, size=1000))
        bank.add(demand(0, 2, size=10))
        result = PimMatcher(bank, max_iterations=1).run()
        assert result.matches[0].dst == 2

    @pytest.mark.parametrize("policy", [Policy.SRPT, Policy.FCFS])
    @pytest.mark.parametrize("seed", range(20))
    def test_source_conflict_lowest_priority_then_lowest_dst(self, policy, seed):
        # Every destination proposes to source 0; the source keeps the
        # lowest priority value, ties going to the lower-numbered port.
        rng = random.Random(seed)
        ports = rng.randrange(3, 12)
        bank = NotificationQueueBank(num_ports=ports, policy=policy)
        keys = {}
        for dst in rng.sample(range(1, ports), rng.randrange(2, ports)):
            value = rng.randrange(1, 4)
            bank.add(demand(0, dst, size=64 * value, t=float(value), mid=dst))
            keys[dst] = (value, dst)
        result = PimMatcher(bank, max_iterations=1).run()
        assert [m.dst for m in result.matches] == [min(keys, key=keys.get)]

    def test_iterations_bounded(self):
        bank = NotificationQueueBank(num_ports=8)
        for s in range(4):
            for d in range(4, 8):
                bank.add(demand(s, d, mid=d - 4))
        result = PimMatcher(bank).run()
        assert result.iterations <= 8
        assert result.cycles == result.iterations * 3

    def test_wide_ports_only_eligible_source_above_64(self):
        # 144 ports (Figure 8a's switch): the words span several machine
        # words, and the one eligible source sits past bit 63.
        bank = NotificationQueueBank(num_ports=144)
        bank.add(demand(5, 3, size=8, mid=0))
        bank.add(demand(70, 3, size=16, mid=1))
        bank.add(demand(100, 3, size=32, mid=2))
        bank.add(demand(100, 130, size=8, mid=3))
        busy_src, busy_dst = word([5, 70]), word([130])
        result = PimMatcher(bank).run(busy_src, busy_dst)
        assert [(m.src, m.dst) for m in result.matches] == [(100, 3)]
        assert result.iterations == 1
        assert [(m.src, m.dst) for m in PimMatcher(bank).run().matches] == [
            (5, 3), (100, 130),
        ]

    @given(st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 512)),
        min_size=1, max_size=40,
    ))
    @settings(max_examples=40, deadline=None)
    def test_property_valid_maximal_matching(self, raw):
        bank = NotificationQueueBank(num_ports=8, max_active_per_pair=64)
        demands = []
        for i, (s, d, size) in enumerate(raw):
            if s == d:
                continue
            dm = demand(s, d, size=size, mid=i % 256)
            bank.add(dm)
            demands.append(dm)
        if not demands:
            return
        result = PimMatcher(bank).run()
        # Valid: no port reuse.
        assert len({m.src for m in result.matches}) == len(result.matches)
        assert len({m.dst for m in result.matches}) == len(result.matches)
        # Maximal: every unmatched demand conflicts with a matched port.
        matched_src = {m.src for m in result.matches}
        matched_dst = {m.dst for m in result.matches}
        for dm in demands:
            if dm not in result.matches:
                assert dm.src in matched_src or dm.dst in matched_dst


class TestGrantEngine:
    def make(self, chunk=256, ports=4, policy=Policy.SRPT):
        return CentralScheduler(
            SchedulerConfig(
                num_ports=ports, link_gbps=100.0, chunk_bytes=chunk, policy=policy
            )
        )

    def test_single_small_message_single_grant(self):
        sched = self.make()
        sched.notify(demand(0, 1, size=64))
        issued = sched.schedule(0.0)
        assert len(issued) == 1
        assert issued[0].chunk_bytes == 64
        assert sched.pending_demands == 0

    def test_large_message_chunked(self):
        sched = self.make(chunk=256)
        sched.notify(demand(0, 1, size=1000))
        total, grants = 0, 0
        t = 0.0
        while sched.pending_demands or total == 0:
            issued = sched.schedule(t)
            for item in issued:
                total += item.chunk_bytes
                grants += 1
            t = sched.next_release_after(t) or (t + 1.0)
            if grants > 10:
                break
        assert total == 1000
        assert grants == 4  # 256+256+256+232

    def test_busy_window_blocks_second_grant(self):
        sched = self.make()
        sched.notify(demand(0, 1, size=1000, mid=0))
        sched.notify(demand(0, 2, size=64, mid=1))
        issued = sched.schedule(0.0)
        # Source 0 can only serve one destination at a time.
        assert len(issued) == 1

    def test_port_release_allows_next_grant(self):
        sched = self.make()
        sched.notify(demand(0, 1, size=64, mid=0))
        issued = sched.schedule(0.0)
        assert issued
        # The ports stay busy for the chunk's wire time even though the
        # message completed (the data is still in flight).
        release = sched.next_release_after(0.0)
        assert release == pytest.approx(72 * 8 / 100.0)
        sched.notify(demand(0, 1, size=64, mid=1))
        issued2 = sched.schedule(release)
        assert issued2

    def test_early_release_is_wire_time(self):
        # §3.1.1 step 7: release l/B after the grant (wire bytes include
        # /M*/ block framing: 64 B payload -> 9 blocks -> 72 B wire).
        sched = self.make()
        sched.notify(demand(0, 1, size=64))
        sched.schedule(0.0)
        assert sched.src_free_at(0) == pytest.approx(72 * 8 / 100.0)

    def test_disabling_early_release_doubles_hold(self):
        config = SchedulerConfig(
            num_ports=4, link_gbps=100.0, chunk_bytes=256, early_release=False
        )
        sched = CentralScheduler(config)
        sched.notify(demand(0, 1, size=64))
        sched.schedule(0.0)
        assert sched.src_free_at(0) == pytest.approx(2 * 72 * 8 / 100.0)

    def test_first_grant_for_rres_is_carried_request(self):
        sched = self.make()
        sched.notify(demand(1, 0, size=512, response=True))
        issued = sched.schedule(0.0)
        assert issued == ["rreq"]  # the demand's carried request
        t = sched.next_release_after(0.0)
        issued2 = sched.schedule(t)
        assert isinstance(issued2[0], Grant)
        assert issued2[0].for_response

    def test_grant_conservation(self):
        # Total granted bytes equal total demanded bytes.
        sched = self.make(chunk=128, ports=6)
        sizes = {(0, 3): 500, (1, 4): 64, (2, 5): 1000}
        for i, ((s, d), size) in enumerate(sizes.items()):
            sched.notify(demand(s, d, size=size, mid=i))
        granted = 0
        t = 0.0
        for _ in range(100):
            for item in sched.schedule(t):
                granted += item.chunk_bytes
            if sched.pending_demands == 0:
                break
            t = sched.next_release_after(t) or t + 1.0
        assert granted == sum(sizes.values())

    def test_srpt_grants_shortest_first(self):
        sched = self.make(chunk=64)
        sched.notify(demand(0, 1, size=1000, mid=0))
        sched.notify(demand(2, 1, size=64, mid=1))
        issued = sched.schedule(0.0)
        assert issued[0].src == 2

    def test_fcfs_grants_oldest_first(self):
        sched = self.make(chunk=64, policy=Policy.FCFS)
        sched.notify(demand(0, 1, size=64, t=5.0, mid=0))
        sched.notify(demand(2, 1, size=8, t=1.0, mid=1))
        issued = sched.schedule(10.0)
        assert issued[0].src == 2

    def test_average_iterations_tracked(self):
        sched = self.make()
        sched.notify(demand(0, 1, size=64))
        sched.schedule(0.0)
        assert sched.average_iterations >= 1.0


def textbook_pim(bank, policy, busy_src, busy_dst, max_iterations):
    """Priority PIM as §3.1.2 states it, sharing no code with PimMatcher.

    Each iteration every free destination, in port order, proposes its
    best eligible demand: the first in its queue whose source is free.
    Each source accepts the proposal with the lowest priority value, ties
    going to the lower destination, and the accepted pairs turn busy.  An
    iteration's matches are listed by each source's first proposal.  The
    round stops when an iteration makes no proposal (or at the cap).
    Returns ``(matches, iterations)``; the busy sets are updated in place.
    """
    matches, iterations = [], 0
    while max_iterations is None or iterations < max_iterations:
        offers = {}
        for dst in range(bank.num_ports):
            if dst in busy_dst:
                continue
            best = bank.best_eligible(dst, lambda src: src not in busy_src)
            if best is not None:
                offers.setdefault(best.src, []).append((dst, best))
        if not offers:
            break
        iterations += 1
        accepted = [
            min(proposals, key=lambda o: (priority_of(policy, o[1]), o[0]))[1]
            for proposals in offers.values()
        ]
        for d in accepted:
            busy_src.add(d.src)
            busy_dst.add(d.dst)
        matches.extend(accepted)
    return matches, iterations


class FullRescanScheduler:
    """Reference model: a full-rescan grant engine over a textbook PIM.

    Each round rebuilds both busy-port sets from the release tables, then
    runs :func:`textbook_pim` over every destination.  Chunking, hold
    windows and first-grant bookkeeping follow the same paper steps as
    :class:`CentralScheduler`.
    """

    def __init__(self, config):
        self.config = config
        self.bank = NotificationQueueBank(
            num_ports=config.num_ports,
            policy=config.policy,
            max_active_per_pair=config.max_active_per_pair,
        )
        self.src_busy_until = {}
        self.dst_busy_until = {}
        self.first_granted = set()
        self.total_iterations = 0

    def notify(self, d):
        self.bank.add(d)

    def next_release_after(self, now):
        future = [
            t
            for table in (self.src_busy_until, self.dst_busy_until)
            for t in table.values()
            if t > now
        ]
        return min(future) if future else None

    def schedule(self, now):
        if not self.bank:
            return []
        busy_src = {p for p, t in self.src_busy_until.items() if t > now}
        busy_dst = {p for p, t in self.dst_busy_until.items() if t > now}
        matches, iterations = textbook_pim(
            self.bank, self.config.policy, busy_src, busy_dst,
            self.config.max_iterations,
        )
        self.total_iterations += iterations
        return [self._issue(d, now) for d in matches]

    def _issue(self, d, now):
        chunk = min(self.config.chunk_bytes, d.remaining_bytes)
        d.remaining_bytes -= chunk
        completes = d.remaining_bytes == 0
        if completes:
            self.bank.remove(d)
        else:
            self.bank.reprioritize(d)
        hold = block_count_for_message(chunk) * 8 * 8.0 / self.config.link_gbps
        if not self.config.early_release:
            hold *= 2.0
        self.src_busy_until[d.src] = now + hold
        self.dst_busy_until[d.dst] = now + hold
        first = False
        if d.carried_request is not None and d.message_uid not in self.first_granted:
            self.first_granted.add(d.message_uid)
            first = True
        if completes:
            self.first_granted.discard(d.message_uid)
        if first:
            return d.carried_request
        return Grant(d.src, d.dst, d.message_id, chunk, now, d.message_uid,
                     d.carried_request is not None)


def issued_tuples(issued):
    return [
        (i.src, i.dst, i.message_id, i.chunk_bytes, i.granted_at, i.message_uid,
         i.for_response)
        if isinstance(i, Grant) else i
        for i in issued
    ]


class TestIncrementalRoundMatchesFullRescan:
    """Dirty-destination rounds issue exactly what a full rescan of a
    textbook PIM issues, over as many PIM iterations."""

    @pytest.mark.parametrize("ports", [2, 3, 8, 16, 33, 64, 144])
    @pytest.mark.parametrize("policy", [Policy.SRPT, Policy.FCFS])
    @pytest.mark.parametrize("max_iterations", [None, 1])
    def test_random_traces(self, ports, policy, max_iterations):
        for seed in range(4):
            rng = random.Random(f"{ports}-{policy.value}-{max_iterations}-{seed}")
            config = SchedulerConfig(
                num_ports=ports, link_gbps=100.0, chunk_bytes=64, policy=policy,
                max_iterations=max_iterations, early_release=rng.random() < 0.8,
            )
            fast, ref = CentralScheduler(config), FullRescanScheduler(config)
            now, uid, rounds = 0.0, 0, 0
            for _ in range(400):
                action = rng.random()
                if action < 0.45:
                    src, dst = rng.sample(range(ports), 2)
                    response = rng.random() < 0.3
                    if not ref.bank.can_accept(src, dst, response):
                        continue
                    uid += 1
                    d = Demand(
                        src=src, dst=dst, message_id=uid % 256,
                        total_bytes=rng.choice([1, 8, 64, 100, 256, 1000]),
                        notified_at=now, message_uid=uid,
                        carried_request=("rreq", uid) if response else None,
                    )
                    fast.notify(d.clone())
                    ref.notify(d.clone())
                    continue
                if action < 0.8:
                    # The switch's cadence: the next round at the next
                    # release (or now, when nothing is busy).
                    release = ref.next_release_after(now)
                    now = release if release is not None else now
                elif action < 0.9:
                    now += rng.choice([0.0, 0.5, 3.0, 40.0])
                got, want = fast.schedule(now), ref.schedule(now)
                rounds += 1
                assert issued_tuples(got) == issued_tuples(want), (seed, rounds)
                assert fast.total_iterations == ref.total_iterations, (seed, rounds)
                assert fast.next_release_after(now) == ref.next_release_after(now)
                assert fast.pending_demands == len(ref.bank)
            assert rounds > 50

    def test_schedule_backwards_raises(self):
        sched = CentralScheduler(SchedulerConfig(num_ports=4, link_gbps=100.0))
        sched.notify(demand(0, 1, size=64))
        sched.schedule(10.0)
        sched.schedule(10.0)  # same time is fine
        with pytest.raises(SchedulerError):
            sched.schedule(9.0)
        with pytest.raises(SchedulerError):
            sched.next_release_after(5.0)


@st.composite
def uncontested_rounds(draw):
    """A bank plus busy ports and a candidate word of at most one bit.

    ``mode`` steers the draw toward the edge cases of the uncontested
    round: every source busy, the candidate itself busy, or the candidate
    queue's leading demands all from busy sources.
    """
    ports = draw(st.sampled_from([2, 3, 8, 65, 144]))
    policy = draw(st.sampled_from([Policy.SRPT, Policy.FCFS]))
    bank = NotificationQueueBank(num_ports=ports, policy=policy, max_active_per_pair=8)
    port = st.integers(0, ports - 1)
    raw = draw(st.lists(
        st.tuples(port, port, st.integers(1, 512), st.integers(0, 4), st.booleans()),
        max_size=30,
    ))
    for i, (src, dst, size, t, response) in enumerate(raw):
        if src != dst and bank.can_accept(src, dst, response):
            bank.add(demand(src, dst, size=size, t=float(t), mid=i % 256,
                            response=response))
    candidate = draw(st.none() | port)
    busy_src = draw(st.sets(port, max_size=ports))
    busy_dst = draw(st.sets(port, max_size=ports))
    mode = draw(st.sampled_from(["random", "all_src_busy", "candidate_busy", "heads_busy"]))
    if mode == "all_src_busy":
        busy_src = set(range(ports))
    elif mode == "candidate_busy" and candidate is not None:
        busy_dst.add(candidate)
    elif mode == "heads_busy" and candidate is not None:
        busy_dst.discard(candidate)
        queue = bank.queue_for(candidate).as_sorted_list()
        heads = draw(st.integers(0, len(queue)))
        busy_src |= {d.src for d in queue[:heads]}
    max_iterations = draw(st.sampled_from([None, 1]))
    return bank, policy, candidate, busy_src, busy_dst, max_iterations


class TestUncontestedRound:
    """A candidate word with at most one bit set takes PimMatcher's
    uncontested path; its matches and iteration count are the textbook's."""

    @given(uncontested_rounds())
    @settings(max_examples=200, deadline=None)
    def test_matches_textbook_pim(self, case):
        bank, policy, candidate, busy_src, busy_dst, max_iterations = case
        candidates = 0 if candidate is None else 1 << candidate
        result = PimMatcher(bank, max_iterations=max_iterations).run(
            word(busy_src), word(busy_dst), candidates,
        )
        # The textbook scans every destination: the non-candidates are
        # passed as busy so that only the candidate may propose.
        allowed = set() if candidate is None else {candidate}
        others = set(range(bank.num_ports)) - allowed
        matches, iterations = textbook_pim(
            bank, policy, set(busy_src), set(busy_dst) | others, max_iterations,
        )
        assert [id(m) for m in result.matches] == [id(m) for m in matches]
        assert result.iterations == iterations
        assert iterations <= 1

    def test_head_from_busy_source_is_skipped(self):
        bank = NotificationQueueBank(num_ports=4)
        first = demand(0, 3, size=10, mid=0)
        second = demand(1, 3, size=20, mid=1)
        bank.add(first)
        bank.add(second)
        result = PimMatcher(bank).run(word([0]), 0, word([3]))
        assert result.matches == [second] and result.iterations == 1

    def test_no_free_source_matches_nothing(self):
        bank = NotificationQueueBank(num_ports=4)
        bank.add(demand(0, 3, mid=0))
        bank.add(demand(1, 3, mid=1))
        result = PimMatcher(bank).run(word([0, 1, 2, 3]), 0, word([3]))
        assert result.matches == [] and result.iterations == 0

    def test_busy_candidate_matches_nothing(self):
        bank = NotificationQueueBank(num_ports=4)
        bank.add(demand(0, 3))
        result = PimMatcher(bank, max_iterations=1).run(0, word([3]), word([3]))
        assert result.matches == [] and result.iterations == 0


class TestErrorMessages:
    """Error paths whose checks run inline on the hot path keep the type
    and message of the helper that raises them."""

    @pytest.mark.parametrize("src,dst,bad", [(4, 1, 4), (0, 7, 7), (-1, 9, -1)])
    def test_out_of_range_port(self, src, dst, bad):
        bank = NotificationQueueBank(num_ports=4)
        with pytest.raises(
            SchedulerError, match=rf"^port {bad} out of range for a 4-port switch$"
        ):
            bank.add(Demand(src=src, dst=dst, message_id=0, total_bytes=64))
        assert len(bank) == 0
