#!/usr/bin/env python3
"""Fault tolerance demo (§3.3): surviving a switch failure.

EDM's switch holds scheduler state, so the paper replicates it: hosts
mirror every outgoing message on two interfaces, the primary and backup
switches compute on identical demand streams, and receivers keep the
first copy of each message.  This demo shows (1) the two schedulers
staying in lockstep, and (2) traffic continuing through the backup after
the primary dies, with zero scheduler-state rebuild.

Run:  python examples/fault_tolerance.py
"""

from repro.core.scheduler import CentralScheduler, Demand, SchedulerConfig
from repro.switchfab.failover import (
    DuplicateSuppressor,
    FailoverController,
    MirroredSender,
)


def main() -> None:
    config = SchedulerConfig(num_ports=8, link_gbps=100.0, chunk_bytes=256)
    primary = CentralScheduler(config)
    backup = CentralScheduler(config)
    controller = FailoverController()

    sender = MirroredSender(
        primary=lambda d: primary.notify(d.clone()),
        backup=lambda d: backup.notify(d.clone()),
    )

    print("Mirroring 12 demand notifications to both switches...")
    for i in range(12):
        sender.send(Demand(
            src=i % 4, dst=4 + (i % 4), message_id=i % 256,
            total_bytes=256 * (1 + i % 3), notified_at=float(i),
        ))
    print(f"  primary pending: {primary.pending_demands}, "
          f"backup pending: {backup.pending_demands}  (identical state)")

    p = [(g.grant.src, g.grant.dst, g.grant.chunk_bytes)
         for g in primary.schedule(20.0)]
    b = [(g.grant.src, g.grant.dst, g.grant.chunk_bytes)
         for g in backup.schedule(20.0)]
    print(f"  matching round on both: identical grants? {p == b}  ({len(p)} grants)")

    print("\nReceiver-side duplicate suppression:")
    delivered = []
    rx = DuplicateSuppressor(delivered.append)
    for uid, payload in ((1, "read#1"), (1, "read#1"), (2, "write#2"), (2, "write#2")):
        rx.receive(uid, payload)
    print(f"  4 copies received -> {rx.delivered} delivered, "
          f"{rx.suppressed} suppressed: {delivered}")

    print("\nPrimary switch fails...")
    controller.fail_primary()
    print(f"  active path: {controller.active_path} "
          f"(scheduler state already replicated — no rebuild needed)")
    next_round_at = backup.next_release_after(20.0) or 40.0
    more = backup.schedule(next_round_at)
    print(f"  backup keeps granting: {len(more)} grants issued post-failover")


if __name__ == "__main__":
    main()
