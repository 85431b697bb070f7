"""Declarative scenario specifications: fabric × workload × faults × shape.

A :class:`ScenarioSpec` names everything one run needs — which fabric
model, which workload shape at which scale, and which fault schedule to
inject — as frozen, hashable data.  Specs validate eagerly: an unknown
fabric, a fault on a fabric that cannot host one (only fabrics tagged
``faultable`` expose the substrate's topology hook), or an inverted
fault window all fail at construction time, not mid-sweep.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional, Tuple

from repro.errors import ScenarioError
from repro.fabrics import fabric_info

#: Fault kinds the injector understands.
FAULT_KINDS = ("link_down", "degraded_bw", "failover")

#: Workload shapes the engine can generate.
WORKLOAD_KINDS = ("synthetic", "incast", "shuffle", "trace")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    * ``link_down`` — nodes' uplinks and downlinks transmit nothing in
      ``[at_ns, until_ns)``; queued traffic resumes afterwards.
    * ``degraded_bw`` — links run at ``factor`` of nominal rate in the
      window (e.g. 0.25 = a link renegotiated down to quarter rate).
    * ``failover`` — the primary switch path dies at ``at_ns`` (restored
      at ``until_ns`` if given); delivery continues through the mirrored
      backup path (§3.3) at ``backup_extra_ns`` additional latency.

    ``nodes`` limits link faults to those node ids (None = every node).

    With ``relative=True`` the times are *fractions* of the offered
    workload's arrival span instead of nanoseconds — a failover at 0.3
    strikes 30% of the way into the arrival process no matter how the
    scenario is scaled.  The engine resolves relative specs to absolute
    times once the workload is generated, so catalog scenarios keep
    their faults mid-run at CI smoke scale and at full scale alike.
    """

    kind: str
    at_ns: float
    until_ns: Optional[float] = None
    nodes: Optional[Tuple[int, ...]] = None
    factor: float = 0.25
    backup_extra_ns: float = 60.0
    relative: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ScenarioError(
                f"unknown fault kind {self.kind!r} (known: {', '.join(FAULT_KINDS)})"
            )
        if self.at_ns < 0:
            raise ScenarioError(f"fault time must be >= 0: {self.at_ns}")
        if self.kind in ("link_down", "degraded_bw") and self.until_ns is None:
            raise ScenarioError(f"{self.kind} fault needs an until_ns window end")
        if self.until_ns is not None and self.until_ns <= self.at_ns:
            raise ScenarioError(
                f"fault window must end after it starts: "
                f"[{self.at_ns}, {self.until_ns})"
            )
        if self.relative:
            if self.at_ns >= 1.0:
                raise ScenarioError(
                    f"relative fault start must be in [0,1): {self.at_ns}"
                )
            if self.until_ns is not None and self.until_ns > 1.5:
                raise ScenarioError(
                    f"relative fault end must be <= 1.5: {self.until_ns}"
                )
        if not 0 < self.factor <= 1:
            raise ScenarioError(f"degraded factor must be in (0,1]: {self.factor}")
        if self.backup_extra_ns < 0:
            raise ScenarioError(
                f"backup path latency must be >= 0: {self.backup_extra_ns}"
            )
        if self.nodes is not None and any(n < 0 for n in self.nodes):
            raise ScenarioError(f"node ids must be >= 0: {self.nodes}")

    def resolved(self, span_ns: float) -> "FaultSpec":
        """Absolute-time copy: fractions scaled by the arrival span."""
        if not self.relative:
            return self
        return replace(
            self,
            at_ns=self.at_ns * span_ns,
            until_ns=(
                self.until_ns * span_ns if self.until_ns is not None else None
            ),
            relative=False,
        )

    def describe(self) -> str:
        """Compact one-token summary, e.g. ``degraded_bw@25-75%``."""
        if self.relative:
            span = f"@{self.at_ns * 100:g}"
            if self.until_ns is not None:
                span += f"-{self.until_ns * 100:g}"
            return f"{self.kind}{span}%"
        span = f"@{self.at_ns:g}"
        if self.until_ns is not None:
            span += f"-{self.until_ns:g}"
        return f"{self.kind}{span}"

    def to_dict(self) -> Dict[str, object]:
        out = asdict(self)
        out["nodes"] = list(self.nodes) if self.nodes is not None else None
        return out


@dataclass(frozen=True)
class WorkloadSpec:
    """Which messages to offer: a shape plus its scale knobs.

    Fields are a union over the shapes; each shape reads the ones it
    understands (``degree`` is incast-only, ``rounds`` shuffle-only,
    ``app`` trace-only).  ``rounds=0`` lets shuffle derive its round
    count from ``message_count``.
    """

    kind: str = "synthetic"
    load: float = 0.6
    message_count: int = 2_000
    size_bytes: int = 64
    write_fraction: float = 0.5
    degree: int = 8
    rounds: int = 0
    app: str = ""

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ScenarioError(
                f"unknown workload kind {self.kind!r} "
                f"(known: {', '.join(WORKLOAD_KINDS)})"
            )
        if self.kind == "trace" and not self.app:
            raise ScenarioError("trace workloads need an app name")
        if self.message_count <= 0:
            raise ScenarioError(
                f"need a positive message count: {self.message_count}"
            )
        if not 0 < self.load <= 1:
            raise ScenarioError(f"load must be in (0,1]: {self.load}")

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class ScenarioSpec:
    """One named scenario: cluster shape × fabric × workload × faults."""

    name: str
    description: str
    fabric: str
    workload: WorkloadSpec = WorkloadSpec()
    faults: Tuple[FaultSpec, ...] = ()
    num_nodes: int = 16
    link_gbps: float = 100.0
    seed: int = 0
    deadline_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario needs a name")
        info = fabric_info(self.fabric)  # raises FabricError on unknown
        for fault in self.faults:
            if fault.kind == "failover":
                if not info.has("faultable"):
                    raise ScenarioError(
                        f"fabric {info.name!r} does not support fault "
                        f"injection (tags: {', '.join(sorted(info.tags))}); "
                        f"faultable fabrics ride the queueing substrate"
                    )
            elif not (info.has("faultable") or info.has("linkfault")):
                raise ScenarioError(
                    f"fabric {info.name!r} does not support fault injection "
                    f"(tags: {', '.join(sorted(info.tags))}); faultable "
                    f"fabrics ride the queueing substrate"
                )
        if self.num_nodes < 2:
            raise ScenarioError(f"cluster needs >= 2 nodes: {self.num_nodes}")
        if self.seed < 0:
            raise ScenarioError(f"seed must be non-negative: {self.seed}")
        if self.deadline_ns is not None and not 0 < self.deadline_ns < math.inf:
            raise ScenarioError(
                f"deadline must be positive and finite: {self.deadline_ns}"
            )
        self._check_degraded_overlap()

    def _check_degraded_overlap(self) -> None:
        """Reject overlapping degraded_bw windows that share links.

        The injector restores each window to the factor it displaced, so
        *nested* overlaps would half-work — but the semantics of two
        simultaneous factors on one link are ambiguous, so overlaps are a
        spec error.  Windows are comparable only within the same time
        mode (both relative or both absolute); a mixed pair cannot be
        ordered until the workload exists, so it is rejected outright.
        """
        degraded = [f for f in self.faults if f.kind == "degraded_bw"]
        for i, a in enumerate(degraded):
            for b in degraded[i + 1:]:
                shares_links = (
                    a.nodes is None
                    or b.nodes is None
                    or set(a.nodes) & set(b.nodes)
                )
                if not shares_links:
                    continue
                if a.relative != b.relative:
                    raise ScenarioError(
                        "degraded_bw windows on shared links must use the "
                        "same time mode (both relative or both absolute): "
                        f"{a.describe()} vs {b.describe()}"
                    )
                if a.at_ns < b.until_ns and b.at_ns < a.until_ns:
                    raise ScenarioError(
                        f"overlapping degraded_bw windows on shared links: "
                        f"{a.describe()} vs {b.describe()}"
                    )

    def faults_summary(self) -> str:
        """Comma-joined fault descriptions, or ``-`` when fault-free."""
        if not self.faults:
            return "-"
        return ",".join(f.describe() for f in self.faults)

    def scaled(
        self,
        *,
        num_nodes: Optional[int] = None,
        message_count: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> "ScenarioSpec":
        """A copy with overridden scale knobs (None keeps the spec value).

        Scaling a scenario's node count down keeps its fault schedule
        valid: link faults that name nodes beyond the new cluster size
        are clamped onto the surviving node range by the injector.
        """
        workload = self.workload
        if message_count is not None:
            workload = replace(workload, message_count=message_count)
        return replace(
            self,
            workload=workload,
            num_nodes=num_nodes if num_nodes is not None else self.num_nodes,
            seed=seed if seed is not None else self.seed,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "fabric": self.fabric,
            "workload": self.workload.to_dict(),
            "faults": [f.to_dict() for f in self.faults],
            "num_nodes": self.num_nodes,
            "link_gbps": self.link_gbps,
            "seed": self.seed,
            "deadline_ns": self.deadline_ns,
        }


__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "ScenarioSpec",
    "WORKLOAD_KINDS",
    "WorkloadSpec",
]
