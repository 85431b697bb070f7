"""Structured workload shapes: incast storms and all-to-all shuffles.

The synthetic generator (:mod:`repro.workloads.synthetic`) mixes a smooth
Poisson background with occasional incast events.  The scenario engine
also needs the two *pure* shapes disaggregated applications are known
for:

* **Incast** — repeated synchronized fan-in: ``degree`` sources hit one
  victim at the same instant, event after event.  This is the §2.4
  stressor for reactive and credit-based fabrics in its undiluted form.
* **All-to-all shuffle** — the map-reduce/parameter-server exchange:
  round ``r`` has every node ``i`` send one transfer to node
  ``(i + r) mod n``, so each round is a perfect permutation and every
  link carries exactly one flow — until a fault breaks the symmetry.

Both families stream through :mod:`repro.workloads.streaming` with
explicit 0-based uids in arrival order, matching the synthetic stream's
determinism contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import WorkloadError


@dataclass(frozen=True)
class IncastSpec:
    """Parameters of a pure-incast workload.

    Incast events arrive as a Poisson process whose mean gap is sized so
    the victim's downlink sees ``load`` of its bandwidth *on average*:
    one event delivers ``degree`` messages that serialize back-to-back,
    so the gap is their combined drain time divided by the load.  With
    ``rotate_victims`` the victim walks round-robin over the nodes
    (spreading the pain); otherwise node 0 absorbs every event.  An
    explicit ``victim`` pins every event onto that node instead — the
    cross-tier incast scenarios use it to aim all fan-in at one leaf —
    without perturbing the RNG draw sequence (source selection draws
    exactly as before).
    """

    num_nodes: int
    link_gbps: float
    load: float
    message_count: int
    size_bytes: int = 64
    degree: int = 8
    write_fraction: float = 1.0
    seed: Optional[int] = 0
    rotate_victims: bool = True
    victim: Optional[int] = None

    def __post_init__(self) -> None:
        if self.victim is not None and not 0 <= self.victim < self.num_nodes:
            raise WorkloadError(
                f"victim must be a node id in [0, {self.num_nodes}): "
                f"{self.victim}"
            )
        if self.num_nodes < 3:
            raise WorkloadError(f"incast needs >= 3 nodes: {self.num_nodes}")
        if not 0 < self.load <= 1:
            raise WorkloadError(f"load must be in (0,1]: {self.load}")
        if self.message_count <= 0:
            raise WorkloadError(f"need a positive message count: {self.message_count}")
        if self.size_bytes <= 0:
            raise WorkloadError(f"size must be positive: {self.size_bytes}")
        if self.degree < 2:
            raise WorkloadError(f"incast degree must be >= 2: {self.degree}")
        if not 0 <= self.write_fraction <= 1:
            raise WorkloadError(f"write fraction in [0,1]: {self.write_fraction}")


@dataclass(frozen=True)
class ShuffleSpec:
    """Parameters of an all-to-all shuffle workload.

    ``rounds`` permutation rounds; round ``r`` (1-based) has node ``i``
    send to ``(i + r) mod n`` (skipping self, so the stride cycles over
    ``1..n-1``).  Rounds are spaced so each node offers ``load`` of its
    uplink: the gap is one transfer's serialization time over the load.
    ``jitter_ns`` adds a small uniform start skew per sender, modelling
    compute-phase imbalance; 0 keeps rounds perfectly synchronized.
    """

    num_nodes: int
    link_gbps: float
    load: float
    rounds: int
    size_bytes: int = 4096
    write_fraction: float = 1.0
    seed: Optional[int] = 0
    jitter_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise WorkloadError(f"shuffle needs >= 2 nodes: {self.num_nodes}")
        if not 0 < self.load <= 1:
            raise WorkloadError(f"load must be in (0,1]: {self.load}")
        if self.rounds <= 0:
            raise WorkloadError(f"need a positive round count: {self.rounds}")
        if self.size_bytes <= 0:
            raise WorkloadError(f"size must be positive: {self.size_bytes}")
        if not 0 <= self.write_fraction <= 1:
            raise WorkloadError(f"write fraction in [0,1]: {self.write_fraction}")
        if self.jitter_ns < 0:
            raise WorkloadError(f"jitter must be >= 0: {self.jitter_ns}")

    @property
    def message_count(self) -> int:
        return self.rounds * self.num_nodes
