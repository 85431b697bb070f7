"""Shared harness for cluster-scale fabric models (§4.3's simulator).

Every fabric (EDM and the six baselines) consumes the same offered
workload — a list of :class:`OfferedMessage` — and produces a
:class:`FabricResult` with per-message completion latencies.  Figure 8a
normalizes each message's latency by the fabric's *unloaded* latency for
that message kind; Figure 8b normalizes completion time by the *ideal*
MCT.  Both normalizations are computed here so protocols are compared
apples-to-apples.
"""

from __future__ import annotations

import abc
import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import FabricError
from repro.sim.context import SimContext, StatsSink
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng

# Fallback uid stream for ad-hoc OfferedMessage construction (tests,
# probes).  Workload generators assign explicit 0-based uids instead, so
# a workload's uids — and everything derived from them, e.g. EDM's
# address mapping — are identical no matter how many runs preceded it in
# the process (the runner executes many cells per worker).
_uid_counter = itertools.count()


@dataclass(frozen=True)
class OfferedMessage:
    """One remote-memory message offered to a fabric.

    Reads model the RREQ/RRES pair: ``size_bytes`` is the *response* size
    (the RREQ itself is 8 B).  Writes are one-sided WREQ of ``size_bytes``.
    """

    src: int
    dst: int
    size_bytes: int
    arrival_ns: float
    is_read: bool
    uid: int = field(default_factory=lambda: next(_uid_counter))

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise FabricError(f"message src == dst == {self.src}")
        if self.size_bytes <= 0:
            raise FabricError(f"size must be positive: {self.size_bytes}")
        if self.arrival_ns < 0:
            raise FabricError(f"arrival must be >= 0: {self.arrival_ns}")


#: Injection key of an :class:`OfferedMessage` (``Simulator.inject_arrivals``).
arrival_time = attrgetter("arrival_ns")


@dataclass
class CompletionRecord:
    """Completion of one offered message."""

    message: OfferedMessage
    completed_at: float

    @property
    def latency_ns(self) -> float:
        return self.completed_at - self.message.arrival_ns


@dataclass
class FabricResult:
    """Per-fabric outcome of a workload run."""

    fabric: str
    records: List[CompletionRecord] = field(default_factory=list)
    unloaded_read_ns: Optional[float] = None
    unloaded_write_ns: Optional[float] = None
    incomplete: int = 0
    stats: Optional[Dict[str, object]] = None
    _cache: Optional[Tuple[int, np.ndarray, np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

    def _arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached (latency_ns, is_read) columns over the completion records.

        The per-message normalization math runs vectorized over these
        instead of looping Python records; the cache is invalidated by
        length, which is enough because records are append-only.
        """
        if self._cache is None or self._cache[0] != len(self.records):
            latencies = np.fromiter(
                (r.completed_at - r.message.arrival_ns for r in self.records),
                dtype=np.float64,
                count=len(self.records),
            )
            reads = np.fromiter(
                (r.message.is_read for r in self.records),
                dtype=np.bool_,
                count=len(self.records),
            )
            self._cache = (len(self.records), latencies, reads)
        return self._cache[1], self._cache[2]

    def _select(self, is_read: Optional[bool]) -> np.ndarray:
        latencies, reads = self._arrays()
        if is_read is None:
            return latencies
        return latencies[reads] if is_read else latencies[~reads]

    def latencies(self, is_read: Optional[bool] = None) -> List[float]:
        return self._select(is_read).tolist()

    def mean_latency_ns(self, is_read: Optional[bool] = None) -> float:
        data = self._select(is_read)
        if data.size == 0:
            raise FabricError(f"no completions recorded for {self.fabric}")
        return float(data.mean())

    def _normalized(self, is_read: Optional[bool]) -> np.ndarray:
        """Latency / unloaded latency of the same message kind (Fig. 8a)."""
        latencies, reads = self._arrays()
        if is_read is not None:
            mask = reads if is_read else ~reads
            latencies = latencies[mask]
            reads = reads[mask]
        read_base, write_base = self.unloaded_read_ns, self.unloaded_write_ns
        if bool(reads.any()) and not (read_base and read_base > 0):
            raise FabricError(f"{self.fabric} result lacks an unloaded baseline")
        if not bool(reads.all()) and not (write_base and write_base > 0):
            raise FabricError(f"{self.fabric} result lacks an unloaded baseline")
        baselines = np.where(reads, read_base or 1.0, write_base or 1.0)
        return latencies / baselines

    def mean_normalized_latency(self, is_read: Optional[bool] = None) -> float:
        data = self._normalized(is_read)
        if data.size == 0:
            raise FabricError(f"no completions recorded for {self.fabric}")
        return float(data.mean())

    def normalized_mct(self, ideal_fn) -> List[float]:
        """MCT / ideal MCT per message (Fig. 8b); ``ideal_fn(message)->ns``."""
        latencies, _ = self._arrays()
        ideals = np.fromiter(
            (ideal_fn(r.message) for r in self.records),
            dtype=np.float64,
            count=len(self.records),
        )
        return (latencies / ideals).tolist()

    def mean_normalized_mct(self, ideal_fn) -> float:
        data = self.normalized_mct(ideal_fn)
        if not data:
            raise FabricError(f"no completions recorded for {self.fabric}")
        return float(np.mean(data))


@dataclass(frozen=True)
class ClusterConfig:
    """Shared cluster parameters (§4.3: 144 nodes, 100 Gbps, single switch)."""

    num_nodes: int = 144
    link_gbps: float = 100.0
    propagation_ns: float = 10.0
    chunk_bytes: int = 256
    max_active_per_pair: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise FabricError(f"cluster needs >= 2 nodes: {self.num_nodes}")
        if not 0 < self.link_gbps < math.inf:
            raise FabricError(
                f"link rate must be finite and positive: {self.link_gbps}"
            )
        if not 0 <= self.propagation_ns < math.inf:
            raise FabricError(
                f"propagation must be finite and >= 0: {self.propagation_ns}"
            )
        if self.chunk_bytes <= 0:
            raise FabricError(f"chunk size must be positive: {self.chunk_bytes}")
        if self.max_active_per_pair <= 0:
            raise FabricError(
                f"max active per pair must be positive: {self.max_active_per_pair}"
            )
        if self.seed < 0:
            raise FabricError(f"seed must be non-negative: {self.seed}")


class Fabric(abc.ABC):
    """A fabric model that can run an offered workload to completion."""

    name: str = "fabric"

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        # Per-fabric stream derived from the cluster seed: every runner
        # cell builds its own config, so cells stay independently
        # reproducible even when fabric models draw random numbers.
        self.rng = make_rng(config.seed)

    def new_context(self) -> SimContext:
        """A fresh clock + stats sink for one run, sharing the fabric RNG.

        Each ``run()`` builds its own context so back-to-back runs (e.g.
        the unloaded-baseline probes) never see each other's clock.
        """
        return SimContext(
            sim=Simulator(),
            rng=self.rng,
            stats=StatsSink(),
        )

    @abc.abstractmethod
    def run(
        self,
        messages: List[OfferedMessage],
        *,
        deadline_ns: Optional[float] = None,
    ) -> FabricResult:
        """Simulate the workload; returns completions (and the unloaded
        baselines, which implementations fill in via
        :meth:`measure_unloaded`)."""

    def measure_unloaded(self, size_bytes: int, is_read: bool) -> float:
        """Latency of a single message of this kind in an empty network."""
        probe = OfferedMessage(
            src=0, dst=1, size_bytes=size_bytes, arrival_ns=0.0,
            is_read=is_read, uid=0,
        )
        result = self.run([probe])
        if not result.records:
            raise FabricError(f"{self.name}: unloaded probe did not complete")
        return result.records[0].latency_ns

    def attach_unloaded_baselines(
        self, result: FabricResult, read_size: int, write_size: int
    ) -> None:
        """Populate the result's unloaded baselines with probe runs."""
        result.unloaded_read_ns = self.measure_unloaded(read_size, is_read=True)
        result.unloaded_write_ns = self.measure_unloaded(write_size, is_read=False)


def dominant_sizes(messages: List[OfferedMessage]) -> "tuple[int, int]":
    """Most common (read, write) sizes, for unloaded-baseline probes."""
    read_sizes: Dict[int, int] = {}
    write_sizes: Dict[int, int] = {}
    for m in messages:
        bucket = read_sizes if m.is_read else write_sizes
        bucket[m.size_bytes] = bucket.get(m.size_bytes, 0) + 1
    read = max(read_sizes, key=read_sizes.get) if read_sizes else 64
    write = max(write_sizes, key=write_sizes.get) if write_sizes else 64
    return read, write
