"""Disaggregated application trace generator (§4.3.2).

Builds message traces for the five applications of Figure 8b: equal read /
write mix with heavy-tailed sizes drawn from the per-application CDFs in
:mod:`repro.workloads.distributions`, offered at a target network load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.fabrics.base import OfferedMessage
from repro.workloads.api import Workload
from repro.workloads.distributions import app_cdf
from repro.workloads.synthetic import SyntheticSpec


@dataclass(frozen=True)
class TraceSpec(Workload):
    """One application trace: synthetic traffic under the app's size CDF."""

    app: str
    num_nodes: int
    link_gbps: float
    load: float
    message_count: int
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        # Fail at construction like the other specs: an unknown app or a
        # bad synthetic field raises here.  Building the synthetic spec
        # draws nothing.
        self._synthetic()

    def _synthetic(self) -> SyntheticSpec:
        return SyntheticSpec(
            num_nodes=self.num_nodes,
            link_gbps=self.link_gbps,
            load=self.load,
            message_count=self.message_count,
            size_cdf=app_cdf(self.app),
            write_fraction=0.5,  # §4.3.2: reads and writes in equal proportion
            seed=self.seed,
        )

    def arrivals(self) -> Iterator[OfferedMessage]:
        return self._synthetic().arrivals()


def all_apps() -> List[str]:
    """Figure 8b's x-axis, in order."""
    return ["hadoop", "spark", "spark_sql", "graphlab", "memcached"]
