"""YCSB workload generators (§4.2.2, Figures 6-7).

The paper drives its remote key-value store with YCSB workloads A, B, and
F: A is 50% reads / 50% updates, B is 95% reads / 5% updates, and F is
reads plus read-modify-writes (33% of operations write).  Keys follow a
Zipfian popularity distribution, as in the YCSB core workloads.  Each read
request (8 B RREQ) fetches a 1 KB object; each write carries 100 B
(§4.2.2's parameters).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import WorkloadError
from repro.sim.rng import make_rng

#: §4.2.2: "Each remote read request (8 B) queries for 1 KB data".
READ_VALUE_BYTES = 1024

#: §4.2.2: "a remote write request carries 100 B data".
WRITE_VALUE_BYTES = 100


class OpType(enum.Enum):
    READ = "read"
    UPDATE = "update"
    READ_MODIFY_WRITE = "rmw"


@dataclass(frozen=True)
class YcsbOp:
    """One key-value operation."""

    op: OpType
    key: int

    @property
    def is_write(self) -> bool:
        return self.op in (OpType.UPDATE, OpType.READ_MODIFY_WRITE)

    @property
    def value_bytes(self) -> int:
        return WRITE_VALUE_BYTES if self.is_write else READ_VALUE_BYTES


@dataclass(frozen=True)
class YcsbWorkload:
    """A named YCSB mix."""

    name: str
    read_fraction: float
    update_fraction: float
    rmw_fraction: float = 0.0

    def __post_init__(self) -> None:
        total = self.read_fraction + self.update_fraction + self.rmw_fraction
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"op fractions must sum to 1, got {total}")


#: Workload A: update heavy — 50% reads, 50% updates.
WORKLOAD_A = YcsbWorkload(name="A", read_fraction=0.5, update_fraction=0.5)

#: Workload B: read mostly — 95% reads, 5% updates.
WORKLOAD_B = YcsbWorkload(name="B", read_fraction=0.95, update_fraction=0.05)

#: Workload F: read-modify-write — 67% reads, 33% RMW (the paper counts F
#: as "33% write").
WORKLOAD_F = YcsbWorkload(
    name="F", read_fraction=0.67, update_fraction=0.0, rmw_fraction=0.33
)

WORKLOADS = {"A": WORKLOAD_A, "B": WORKLOAD_B, "F": WORKLOAD_F}


class ZipfianKeyChooser:
    """Zipfian key popularity over ``keyspace`` keys (YCSB's default).

    Uses the standard rejection-free inverse-CDF over precomputed Zipf
    weights; theta=0.99 is YCSB's default skew.
    """

    def __init__(
        self,
        keyspace: int,
        theta: float = 0.99,
        seed: Optional[int] = None,
    ) -> None:
        if keyspace <= 0:
            raise WorkloadError(f"keyspace must be positive: {keyspace}")
        if not 0 < theta < 1:
            raise WorkloadError(f"theta must be in (0,1): {theta}")
        self.keyspace = keyspace
        self.theta = theta
        self._rng = make_rng(seed)
        ranks = np.arange(1, keyspace + 1, dtype=float)
        weights = ranks ** (-theta)
        self._cdf = np.cumsum(weights) / weights.sum()
        # Shuffle rank->key so hot keys are spread across the key space.
        self._permutation = self._rng.permutation(keyspace)

    def next_key(self) -> int:
        u = self._rng.random()
        rank = int(np.searchsorted(self._cdf, u))
        return int(self._permutation[min(rank, self.keyspace - 1)])


def workload_by_name(name: str) -> YcsbWorkload:
    try:
        return WORKLOADS[name.upper()]
    except KeyError as exc:
        raise WorkloadError(
            f"unknown YCSB workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from exc
