"""Topology specifications: the shape of the switching substrate.

A :class:`TopologySpec` is frozen, hashable data describing how hosts
reach each other: the degenerate ``single`` topology (one implicit
switch, the §4.3 cluster every fabric assumed before multi-tier support)
or a two-tier ``leaf-spine`` Clos.  Specs carry *shape only* — tier
counts, oversubscription ratio, core propagation — plus the pure
arithmetic every layer shares: which leaf a host hangs off
(:meth:`TopologySpec.leaf_of`), how fast a leaf↔spine trunk runs
(:meth:`TopologySpec.trunk_gbps`).  Wiring lives in the fabrics; routing
lives in :mod:`repro.topology.routing`; the live-run fault surface
lives in :mod:`repro.topology.substrate`.

``parse_topology`` turns the CLI/scenario string form into a spec::

    single
    leaf-spine:leaves=4,spines=2
    leaf-spine:leaves=4,spines=2,oversub=2,core_prop_ns=40

Hosts are assigned to leaves contiguously: leaf ``l`` owns hosts
``[l * ceil(N / leaves), (l + 1) * ceil(N / leaves))``.  With a
non-divisible host count the trailing leaves run light (possibly
empty) — the arithmetic stays total so catalog scenarios survive CI's
scale-down overrides.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional, Union

from repro.errors import TopologyError

#: Topology kinds the builders understand.
TOPOLOGY_KINDS = ("single", "leaf-spine")


@dataclass(frozen=True)
class TopologySpec:
    """Shape of the switching substrate between hosts.

    * ``kind`` — ``"single"`` (one implicit switch) or ``"leaf-spine"``
      (two-tier Clos: every host on one leaf, every leaf trunked to
      every spine).
    * ``leaves`` / ``spines`` — tier widths (leaf-spine only).
    * ``oversubscription`` — the leaf's host-bandwidth : core-bandwidth
      ratio.  1.0 is a full-bisection fabric; 4.0 means the uplink
      trunks carry a quarter of the attached host bandwidth.
    * ``core_propagation_ns`` — leaf↔spine propagation; ``None``
      inherits the cluster's host-link propagation.
    """

    kind: str = "single"
    leaves: int = 1
    spines: int = 1
    oversubscription: float = 1.0
    core_propagation_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise TopologyError(
                f"unknown topology kind {self.kind!r} "
                f"(known: {', '.join(TOPOLOGY_KINDS)})"
            )
        if self.kind == "single":
            if (
                self.leaves != 1
                or self.spines != 1
                or self.oversubscription != 1.0
                or self.core_propagation_ns is not None
            ):
                raise TopologyError(
                    "a single-switch topology takes no tier parameters"
                )
            return
        if self.leaves < 2:
            raise TopologyError(
                f"leaf-spine needs >= 2 leaves: {self.leaves}"
            )
        if self.spines < 1:
            raise TopologyError(
                f"leaf-spine needs >= 1 spine: {self.spines}"
            )
        if self.oversubscription <= 0:
            raise TopologyError(
                f"oversubscription must be positive: {self.oversubscription}"
            )
        if self.core_propagation_ns is not None and self.core_propagation_ns <= 0:
            raise TopologyError(
                f"core propagation must be positive: {self.core_propagation_ns}"
            )

    # -- shape arithmetic ------------------------------------------------ #

    @property
    def is_single(self) -> bool:
        return self.kind == "single"

    def hosts_per_leaf(self, num_nodes: int) -> int:
        """Hosts attached to one (full) leaf: ``ceil(N / leaves)``."""
        return -(-num_nodes // self.leaves)

    def leaf_of(self, node: int, num_nodes: int) -> int:
        """The leaf host ``node`` hangs off (contiguous assignment)."""
        return node // self.hosts_per_leaf(num_nodes)

    def trunk_gbps(self, link_gbps: float, num_nodes: int) -> float:
        """Rate of one leaf↔spine trunk.

        A leaf attaches ``hosts_per_leaf * link_gbps`` of host bandwidth
        and spreads its core bandwidth over ``spines`` trunks, shrunk by
        the oversubscription ratio::

            trunk = hosts_per_leaf * link_gbps / (oversubscription * spines)
        """
        return (
            self.hosts_per_leaf(num_nodes) * link_gbps
            / (self.oversubscription * self.spines)
        )

    def core_prop(self, propagation_ns: float) -> float:
        """Leaf↔spine propagation (falls back to the host-link value)."""
        if self.core_propagation_ns is not None:
            return self.core_propagation_ns
        return propagation_ns

    def validate_cluster(self, num_nodes: int) -> None:
        """Reject shapes the cluster cannot populate."""
        if self.is_single:
            return
        if num_nodes < self.leaves:
            raise TopologyError(
                f"{self.leaves} leaves need >= {self.leaves} hosts, "
                f"have {num_nodes}"
            )

    def describe(self) -> str:
        """The short string form ``parse_topology`` accepts."""
        if self.is_single:
            return "single"
        out = f"leaf-spine:leaves={self.leaves},spines={self.spines}"
        if self.oversubscription != 1.0:
            out += f",oversub={self.oversubscription:g}"
        if self.core_propagation_ns is not None:
            out += f",core_prop_ns={self.core_propagation_ns:g}"
        return out

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


#: The degenerate one-switch topology every fabric supports.
SINGLE = TopologySpec()

_PARSE_KEYS = {
    "leaves": ("leaves", int),
    "spines": ("spines", int),
    "oversub": ("oversubscription", float),
    "core_prop_ns": ("core_propagation_ns", float),
}


def parse_topology(text: Union[str, TopologySpec]) -> TopologySpec:
    """Parse ``"single"`` / ``"leaf-spine:leaves=4,spines=2,..."``.

    Accepts an already-built :class:`TopologySpec` unchanged, so config
    builders can take either form.
    """
    if isinstance(text, TopologySpec):
        return text
    text = text.strip()
    if text in ("", "single"):
        return SINGLE
    kind, sep, params = text.partition(":")
    if kind != "leaf-spine":
        raise TopologyError(
            f"unknown topology {text!r} (expected 'single' or "
            f"'leaf-spine:leaves=L,spines=S[,oversub=R][,core_prop_ns=T]')"
        )
    kwargs: Dict[str, object] = {"kind": "leaf-spine", "leaves": 2}
    if sep:
        for item in params.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or key not in _PARSE_KEYS:
                raise TopologyError(
                    f"bad topology parameter {item!r} "
                    f"(known: {', '.join(_PARSE_KEYS)})"
                )
            field_name, cast = _PARSE_KEYS[key]
            try:
                kwargs[field_name] = cast(value)
            except ValueError as exc:
                raise TopologyError(
                    f"bad topology parameter value {item!r}"
                ) from exc
    return TopologySpec(**kwargs)


__all__ = [
    "SINGLE",
    "TOPOLOGY_KINDS",
    "TopologySpec",
    "parse_topology",
]
