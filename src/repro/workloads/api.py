"""The unified streaming workload API.

Every fabric workload — synthetic all-to-all, pure shapes, app traces —
is a frozen spec that subclasses :class:`Workload`: its
:meth:`~Workload.arrivals` lazily yields messages in arrival order.
Nothing is materialized up front, so peak memory is O(1) in the message
count (streams hold one pending item per merge source, never the whole
workload), and a million-message arrival process costs the same resident
memory as a thousand-message one.

Alongside the protocol live :class:`RateShape` — (optionally diurnal- or
bursty-) rate modulation over simulated time, which the closed-loop
serving subsystem applies to its think times — and :func:`substream`,
the per-key child RNGs every stream draws from.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.sim.rng import make_rng

#: Rate-modulation shapes the arrival machinery understands.
RATE_SHAPES = ("steady", "diurnal", "bursty")


def substream(seed: Optional[int], *key: int) -> np.random.Generator:
    """An independent, reproducible child RNG for one workload substream.

    Derived from ``(seed, *key)`` through :class:`numpy.random.SeedSequence`,
    so per-source streams can be generated lazily and merged in time order
    without replaying one shared generator's draw sequence.  ``seed=None``
    asks for fresh OS entropy (a non-reproducible workload).  A negative
    seed raises :class:`WorkloadError`.
    """
    if seed is None:
        return make_rng(None)
    if seed < 0:
        raise WorkloadError(f"seed must be non-negative: {seed}")
    return np.random.default_rng(np.random.SeedSequence((int(seed), *key)))


@dataclass(frozen=True)
class RateShape:
    """Multiplicative arrival-rate modulation over simulated time.

    * ``steady`` — factor 1 everywhere (a homogeneous Poisson process).
    * ``diurnal`` — ``1 + amplitude * sin(2*pi*t/period_ns)``: the smooth
      day/night swing of user-facing serving traffic, compressed onto a
      simulation-scale period.
    * ``bursty`` — an on/off square wave: ``burst_factor`` for the first
      ``duty`` fraction of every period, ``1`` otherwise (flash crowds,
      batch-job fan-in).

    The factor scales *rate*: a closed-loop client divides its think time
    by it.
    """

    kind: str = "steady"
    period_ns: float = 1e6
    amplitude: float = 0.5
    burst_factor: float = 4.0
    duty: float = 0.2

    def __post_init__(self) -> None:
        if self.kind not in RATE_SHAPES:
            raise WorkloadError(
                f"unknown rate shape {self.kind!r} (known: {', '.join(RATE_SHAPES)})"
            )
        if self.period_ns <= 0:
            raise WorkloadError(f"period must be positive: {self.period_ns}")
        if not 0 <= self.amplitude < 1:
            raise WorkloadError(f"amplitude must be in [0,1): {self.amplitude}")
        if self.burst_factor < 1:
            raise WorkloadError(f"burst factor must be >= 1: {self.burst_factor}")
        if not 0 < self.duty <= 1:
            raise WorkloadError(f"duty cycle must be in (0,1]: {self.duty}")

    def factor(self, t_ns: float) -> float:
        """The instantaneous rate multiplier at simulated time ``t_ns``."""
        if self.kind == "steady":
            return 1.0
        if self.kind == "diurnal":
            return 1.0 + self.amplitude * math.sin(
                2.0 * math.pi * t_ns / self.period_ns
            )
        phase = (t_ns / self.period_ns) % 1.0
        return self.burst_factor if phase < self.duty else 1.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "period_ns": self.period_ns,
            "amplitude": self.amplitude,
            "burst_factor": self.burst_factor,
            "duty": self.duty,
        }


class Workload(abc.ABC):
    """A lazy arrival stream; each spec dataclass subclasses it.

    ``arrivals()`` yields the workload's
    :class:`~repro.fabrics.base.OfferedMessage` items in arrival order,
    producing each on demand.  Iterating a workload twice yields the same
    sequence (each call builds fresh substream RNGs from the spec's seed).
    """

    @abc.abstractmethod
    def arrivals(self) -> Iterator[Any]:
        """Lazily yield the workload's items in arrival order."""

    def materialize(self) -> List[Any]:
        """The whole stream as a list: O(n) memory, for callers that share
        one workload across runs or need it twice."""
        return list(self.arrivals())


__all__ = [
    "RATE_SHAPES",
    "RateShape",
    "Workload",
    "substream",
]
