"""Disaggregated application trace generator (§4.3.2).

Builds message traces for the five applications of Figure 8b: equal read /
write mix with heavy-tailed sizes drawn from the per-application CDFs in
:mod:`repro.workloads.distributions`, offered at a target network load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import WorkloadError


@dataclass(frozen=True)
class TraceSpec:
    """Parameters for one application trace."""

    app: str
    num_nodes: int
    link_gbps: float
    load: float
    message_count: int
    seed: Optional[int] = 0


def all_apps() -> List[str]:
    """Figure 8b's x-axis, in order."""
    return ["hadoop", "spark", "spark_sql", "graphlab", "memcached"]


def validate_app(app: str) -> str:
    if app not in all_apps():
        raise WorkloadError(f"unknown app {app!r}; choose from {all_apps()}")
    return app
