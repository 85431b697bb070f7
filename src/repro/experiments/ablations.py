"""Ablation sweeps as a registered experiment (DESIGN.md §5).

Seven families, each a row of cells on the runner's grid:

* ``chunk``         — chunk size vs latency (§3.1.3),
* ``x_active``      — X, max active notifications per pair (§4.3: X=3 best),
* ``policy``        — FCFS vs SRPT under light- vs heavy-tailed workloads,
* ``pim_iters``     — PIM iteration budget vs matching quality (§3.1.2),
* ``early_release`` — early port release on/off (§3.1.1 step 7),
* ``preemption``    — intra-frame preemption on/off (§3.2.3),
* ``incast``        — incast stress (the limitation-6 scenario).

The reducer returns ``{family: {setting: value}}`` with string setting
keys so results serialize cleanly into JSON artifacts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.scheduler import Policy
from repro.errors import ConfigError
from repro.experiments.figures import format_grid, shared_workload
from repro.experiments.runner import Cell, ExperimentSpec, make_cell, register
from repro.fabrics.base import ClusterConfig
from repro.fabrics.edm import EdmFabric
from repro.workloads.distributions import HADOOP_SORT, fixed_size
from repro.workloads.synthetic import SyntheticSpec

FAMILIES = (
    "chunk",
    "x_active",
    "policy",
    "pim_iters",
    "early_release",
    "preemption",
    "incast",
)

#: Per-family default message counts (matched to the bench harness).
_DEFAULT_COUNTS = {
    "chunk": 3000,
    "x_active": 6000,
    "policy": 4000,
    "pim_iters": 6000,
    "early_release": 6000,
    "incast": 4000,
}

_CDFS = {"fixed64": fixed_size(64), "hadoop_sort": HADOOP_SORT}


def _family_settings(family: str) -> List[Dict[str, object]]:
    if family == "chunk":
        return [
            {"setting": str(c), "chunk_bytes": c, "cdf": "hadoop_sort", "load": 0.8}
            for c in (64, 128, 256, 512, 1024)
        ]
    if family == "x_active":
        return [
            {"setting": str(x), "max_active_per_pair": x, "cdf": "fixed64", "load": 0.8}
            for x in (1, 2, 3, 4, 8)
        ]
    if family == "policy":
        return [
            {
                "setting": f"{tail}/{policy}",
                "policy": policy,
                "cdf": "hadoop_sort" if tail == "heavy" else "fixed64",
                "load": 0.8,
            }
            for tail in ("light", "heavy")
            for policy in ("FCFS", "SRPT")
        ]
    if family == "pim_iters":
        return [
            {
                "setting": "maximal" if iters is None else str(iters),
                "max_iterations": iters,
                "cdf": "fixed64",
                "load": 0.8,
            }
            for iters in (1, 2, None)
        ]
    if family == "early_release":
        return [
            {"setting": name, "early_release": early, "cdf": "fixed64", "load": 0.8}
            for name, early in (("early", True), ("late", False))
        ]
    if family == "preemption":
        return [{"setting": name, "enabled": name == "on"} for name in ("off", "on")]
    if family == "incast":
        return [
            {
                "setting": f"{frac:g}",
                "incast_fraction": frac,
                "cdf": "fixed64",
                "load": 0.7,
            }
            for frac in (0.0, 0.25, 0.5)
        ]
    raise ConfigError(f"unknown ablation family {family!r} (known: {', '.join(FAMILIES)})")


def build_ablation_cells(
    families: Optional[Sequence[str]] = None,
    num_nodes: int = 16,
    link_gbps: float = 100.0,
    seed: int = 3,
    message_count: Optional[int] = None,
) -> List[Cell]:
    """Cells for the requested families (default: all seven)."""
    cells: List[Cell] = []
    for family in families if families is not None else FAMILIES:
        for settings in _family_settings(family):
            count = (
                message_count
                if message_count is not None
                else _DEFAULT_COUNTS.get(family, 4000)
            )
            cells.append(
                make_cell(
                    "ablations",
                    fabric="EDM",
                    load=settings.get("load"),
                    seed=seed,
                    scale={
                        "num_nodes": num_nodes,
                        "link_gbps": link_gbps,
                        "message_count": count,
                        "deadline_ns": 5_000_000_000.0,
                    },
                    extra={
                        "family": family,
                        **{k: v for k, v in settings.items() if k != "load"},
                    },
                )
            )
    return cells


def _run_preemption_cell(cell: Cell) -> float:
    from repro.mac.frame import EthernetFrame
    from repro.phy.encoder import encode_frame, encode_memory_message
    from repro.phy.preemption import PreemptiveTxMux, memory_latency_blocks

    mux = PreemptiveTxMux(preemption_enabled=bool(cell.param("enabled")))
    frame = EthernetFrame(dst_mac=1, src_mac=2, payload=b"\x00" * 1500)
    mux.offer_frame(encode_frame(frame.serialize()))
    mux.offer_memory(encode_memory_message(b"\x01" * 8))
    return float(memory_latency_blocks(mux.drain()))


def run_ablation_cell(cell: Cell) -> float:
    """One EDM run under one ablation setting -> mean normalized latency.

    (The ``preemption`` family is a PHY microbenchmark instead: it returns
    the block index at which the memory message finished.)
    """
    family = cell.param("family")
    if family == "preemption":
        return _run_preemption_cell(cell)
    config = ClusterConfig(
        num_nodes=cell.param("num_nodes"),
        link_gbps=cell.param("link_gbps"),
        chunk_bytes=cell.param("chunk_bytes", 256),
        max_active_per_pair=cell.param("max_active_per_pair", 3),
        seed=cell.seed,
    )
    fabric = EdmFabric(
        config,
        policy=Policy[cell.param("policy", "SRPT")],
        max_iterations=cell.param("max_iterations"),
        early_release=bool(cell.param("early_release", True)),
    )
    spec = SyntheticSpec(
        num_nodes=cell.param("num_nodes"),
        link_gbps=cell.param("link_gbps"),
        load=cell.load,
        message_count=cell.param("message_count"),
        size_cdf=_CDFS[cell.param("cdf")],
        seed=cell.seed,
        incast_fraction=cell.param("incast_fraction", 0.0),
    )
    messages = shared_workload(spec)
    result = fabric.run_with_baselines(
        messages, deadline_ns=cell.param("deadline_ns")
    )
    return result.mean_normalized_latency()


def _reduce_ablations(
    cells: Sequence[Cell], results: Sequence
) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for cell, value in zip(cells, results):
        out.setdefault(cell.param("family"), {})[cell.param("setting")] = value
    return out


register(
    ExperimentSpec(
        name="ablations",
        description="Design-choice ablation sweeps (chunk size, X, policy, PIM, ...)",
        build_cells=build_ablation_cells,
        run_cell=run_ablation_cell,
        reduce=_reduce_ablations,
        render=lambda grid: format_grid(grid, "Ablations — EDM design choices"),
    )
)

