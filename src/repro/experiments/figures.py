"""Experiment definitions: one registered spec per paper table/figure.

Each experiment names a parameter grid of :class:`~repro.experiments.runner.Cell`
points, a pure per-cell function, a reducer that reassembles per-cell
results into the figure's shape, and a renderer that prints it.  Every
caller — the CLI, tests, examples — runs one by name through the
:class:`~repro.experiments.runner.Runner` (``run_experiment("figure8a",
jobs=4, loads=..., scale=...)``), so ``jobs=N`` output is bit-identical
to serial.  Experiment scale (node count, message count) is a grid
option, so tests run small and benches run at representative size.
``run_table1`` and ``run_figure5`` are the analytic cells themselves.

Sweeps build cells as ``for x: for fabric``, so the fabric cells at one
grid point offer the *same* frozen workload spec.  :func:`shared_workload`
materializes each spec once per process and hands every fabric the same
immutable tuple; with ``jobs > 1`` each worker keeps its own memo, and a
cell's result never depends on which cell ran before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.apps.kvstore import (
    FIGURE7_SPLITS,
    kv_latency_ns,
    kv_throughput_mrps,
)
from repro.errors import FabricError
from repro.fabrics import ClusterConfig, fabric_by_name, fabric_names
from repro.fabrics.base import Fabric, OfferedMessage
from repro.latency.breakdown import (
    format_breakdown,
    read_breakdown,
    total_ns,
    write_breakdown,
)
from repro.latency.table1 import compute_table1, format_table1, latency_ratios
from repro.experiments.runner import Cell, ExperimentSpec, make_cell, register
from repro.workloads.api import Workload
from repro.workloads.distributions import fixed_size
from repro.workloads.synthetic import SyntheticSpec
from repro.workloads.traces import TraceSpec, all_apps
from repro.workloads.ycsb import WORKLOADS

# --------------------------------------------------------------------------- #
# Table 1 + Figure 5 (analytic, single-cell)                                  #
# --------------------------------------------------------------------------- #


def run_table1() -> Dict[str, Dict[str, float]]:
    """Table 1 totals per stack (ns)."""
    return {
        row.stack: {
            "read_stack_ns": row.read_network_stack_ns,
            "write_stack_ns": row.write_network_stack_ns,
            "read_total_ns": row.read_total_ns,
            "write_total_ns": row.write_total_ns,
        }
        for row in compute_table1()
    }


def run_figure5() -> Dict[str, float]:
    """Figure 5 totals: EDM 64 B read/write end-to-end, from cycle counts."""
    return {
        "read_total_ns": total_ns(read_breakdown()),
        "write_total_ns": total_ns(write_breakdown()),
    }


def _single_cell(experiment: str):
    def build() -> List[Cell]:
        return [make_cell(experiment)]

    return build


def _first_result(cells: Sequence[Cell], results: Sequence) -> object:
    return results[0]


def _render_figure5(totals: Dict[str, float]) -> str:
    """Both 64 B timelines; ``totals`` holds only their end points."""
    return "\n\n".join(
        (
            format_breakdown(read_breakdown(), "Figure 5 — 64 B READ"),
            format_breakdown(write_breakdown(), "Figure 5 — 64 B WRITE"),
        )
    )


register(
    ExperimentSpec(
        name="table1",
        description="Table 1: unloaded fabric latency, four stacks (analytic)",
        build_cells=_single_cell("table1"),
        run_cell=lambda cell: run_table1(),
        reduce=_first_result,
        # The table rows come from the same stage models as the totals.
        render=lambda totals: format_table1(),
    )
)

register(
    ExperimentSpec(
        name="figure5",
        description="Figure 5: EDM 64 B cycle-level latency breakdown (analytic)",
        build_cells=_single_cell("figure5"),
        run_cell=lambda cell: run_figure5(),
        reduce=_first_result,
        render=_render_figure5,
    )
)


# --------------------------------------------------------------------------- #
# Figure 6: KV-store throughput, EDM vs RDMA, YCSB A/B/F                      #
# --------------------------------------------------------------------------- #


def _figure6_cells(link_gbps: float = 100.0) -> List[Cell]:
    return [
        make_cell("figure6", extra={"workload": name, "link_gbps": link_gbps})
        for name in ("A", "B", "F")
    ]


def _figure6_cell(cell: Cell) -> Dict[str, object]:
    name = cell.param("workload")
    link_gbps = cell.param("link_gbps")
    workload = WORKLOADS[name]
    edm = kv_throughput_mrps("EDM", workload, link_gbps)
    rdma = kv_throughput_mrps("RDMA", workload, link_gbps)
    return {
        "workload": name,
        "edm_mrps": edm.mrps,
        "rdma_mrps": rdma.mrps,
        "speedup": edm.mrps / rdma.mrps,
    }


def _rows(cells: Sequence[Cell], results: Sequence) -> List:
    return list(results)


def _render_figure6(rows: Sequence[Dict[str, object]]) -> str:
    lines = ["Figure 6 — KV throughput (Mrps), EDM vs RDMA:"]
    for row in rows:
        lines.append(
            f"  YCSB-{row['workload']}: EDM {row['edm_mrps']:6.2f}  "
            f"RDMA {row['rdma_mrps']:6.2f}  speedup {row['speedup']:.2f}x"
        )
    return "\n".join(lines)


register(
    ExperimentSpec(
        name="figure6",
        description="Figure 6: KV throughput (Mrps), EDM vs RDMA, YCSB A/B/F",
        build_cells=_figure6_cells,
        run_cell=_figure6_cell,
        reduce=_rows,
        render=_render_figure6,
    )
)


# --------------------------------------------------------------------------- #
# Figure 7: KV-store latency vs local:remote placement                         #
# --------------------------------------------------------------------------- #


def _figure7_cells(link_gbps: float = 100.0) -> List[Cell]:
    return [
        make_cell(
            "figure7",
            extra={"local": local, "remote": remote, "link_gbps": link_gbps},
        )
        for local, remote in FIGURE7_SPLITS
    ]


def _figure7_cell(cell: Cell) -> Dict[str, object]:
    local = cell.param("local")
    remote = cell.param("remote")
    link_gbps = cell.param("link_gbps")
    row: Dict[str, object] = {"split": f"{local}:{remote}"}
    for stack in ("EDM", "CXL", "RDMA"):
        row[stack.lower() + "_ns"] = kv_latency_ns(
            stack, local, remote, link_gbps=link_gbps
        ).mean_ns
    return row


def _render_figure7(rows: Sequence[Dict[str, object]]) -> str:
    lines = ["Figure 7 — mean YCSB-A latency (ns) vs local:remote placement:"]
    for row in rows:
        lines.append(
            f"  {row['split']:>7}: EDM {row['edm_ns']:7.1f}  "
            f"CXL {row['cxl_ns']:7.1f}  RDMA {row['rdma_ns']:7.1f}"
        )
    return "\n".join(lines)


register(
    ExperimentSpec(
        name="figure7",
        description="Figure 7: KV latency (ns) vs local:remote placement",
        build_cells=_figure7_cells,
        run_cell=_figure7_cell,
        reduce=_rows,
        render=_render_figure7,
    )
)


# --------------------------------------------------------------------------- #
# Figure 8a: normalized latency vs load (and mixed ratios)                     #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Figure8aScale:
    """Simulation scale for Figure 8a (paper: 144 nodes, 100 Gbps)."""

    num_nodes: int = 144
    link_gbps: float = 100.0
    message_count: int = 30_000
    seed: int = 1
    deadline_ns: float = 2_000_000_000.0
    fabric_names: Optional[Sequence[str]] = None  # None = all seven


def _selected_fabric_names(names: Optional[Sequence[str]]) -> List[str]:
    """Legend names filtered case-insensitively, in the legend's order."""
    if names is None:
        return fabric_names()
    known = {n.lower(): n for n in fabric_names()}
    unknown = [n for n in names if n.lower() not in known]
    if unknown:
        raise FabricError(
            f"unknown fabric(s) {', '.join(unknown)} "
            f"(known: {', '.join(fabric_names())})"
        )
    wanted = {n.lower() for n in names}
    return [n for n in fabric_names() if n.lower() in wanted]


def _scale_params(scale) -> Dict[str, object]:
    """The shared simulation-size knobs a cell carries (8a and 8b scales)."""
    return {
        "num_nodes": scale.num_nodes,
        "link_gbps": scale.link_gbps,
        "message_count": scale.message_count,
        "deadline_ns": scale.deadline_ns,
    }


def _cluster_config(cell: Cell) -> ClusterConfig:
    return ClusterConfig(
        num_nodes=cell.param("num_nodes"),
        link_gbps=cell.param("link_gbps"),
        seed=cell.seed,
    )


#: One-entry memo behind :func:`shared_workload`.
_memo_spec: Any = None
_memo_messages: Tuple[OfferedMessage, ...] = ()


def shared_workload(spec: Workload) -> Tuple[OfferedMessage, ...]:
    """The materialized workload of a frozen spec, memoized per process.

    Only the most recent spec is kept, and its entry is dropped *before*
    the next spec is materialized, so at most one workload is resident.
    The tuple is immutable, so no fabric run can alter what the next
    cell with an equal spec receives.
    """
    global _memo_spec, _memo_messages
    if spec != _memo_spec:
        _memo_spec, _memo_messages = None, ()
        _memo_messages = tuple(spec.materialize())
        _memo_spec = spec
    return _memo_messages


def _synthetic_messages(
    cell: Cell, write_fraction: float
) -> Tuple[OfferedMessage, ...]:
    """The 64 B microbenchmark workload for one (load, fabric) cell."""
    spec = SyntheticSpec(
        num_nodes=cell.param("num_nodes"),
        link_gbps=cell.param("link_gbps"),
        load=cell.load,
        message_count=cell.param("message_count"),
        size_cdf=fixed_size(64),
        write_fraction=write_fraction,
        seed=cell.seed,
        incast_fraction=0.0,
    )
    return shared_workload(spec)


def _run_point(
    fabric: Fabric,
    messages: Sequence[OfferedMessage],
    deadline_ns: float,
) -> Dict[str, float]:
    result = fabric.run_with_baselines(messages, deadline_ns=deadline_ns)
    out = {"incomplete": float(result.incomplete)}
    for kind, is_read in (("read", True), ("write", False)):
        try:
            out[kind] = result.mean_normalized_latency(is_read=is_read)
        except Exception:
            out[kind] = float("nan")
    return out


def _figure8a_cells(
    loads: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 0.9),
    write_fraction: float = 0.5,
    scale: Figure8aScale = Figure8aScale(),
) -> List[Cell]:
    return [
        make_cell(
            "figure8a",
            fabric=fabric,
            load=load,
            seed=scale.seed,
            scale=_scale_params(scale),
            extra={"write_fraction": write_fraction},
        )
        for load in loads
        for fabric in _selected_fabric_names(scale.fabric_names)
    ]


def _figure8a_cell(cell: Cell) -> Dict[str, float]:
    messages = _synthetic_messages(cell, cell.param("write_fraction"))
    fabric = fabric_by_name(cell.fabric, _cluster_config(cell))
    return _run_point(fabric, messages, cell.param("deadline_ns"))


def _figure8a_reduce(
    cells: Sequence[Cell], results: Sequence
) -> Dict[float, Dict[str, Dict[str, float]]]:
    out: Dict[float, Dict[str, Dict[str, float]]] = {}
    for cell, value in zip(cells, results):
        out.setdefault(cell.load, {})[cell.fabric] = value
    return out


register(
    ExperimentSpec(
        name="figure8a",
        description="Figure 8a: normalized 64 B latency vs load, all protocols",
        build_cells=_figure8a_cells,
        run_cell=_figure8a_cell,
        reduce=_figure8a_reduce,
        render=lambda grid: format_grid(
            grid, "Figure 8a — normalized 64 B latency vs load"
        ),
    )
)


def _figure8a_mix_cells(
    mixes: Sequence[Tuple[int, int]] = (
        (100, 0),
        (80, 20),
        (50, 50),
        (20, 80),
        (0, 100),
    ),
    load: float = 0.8,
    scale: Figure8aScale = Figure8aScale(),
) -> List[Cell]:
    return [
        make_cell(
            "figure8a_mix",
            fabric=fabric,
            load=load,
            seed=scale.seed,
            scale=_scale_params(scale),
            extra={"write_parts": write_parts, "read_parts": read_parts},
        )
        for write_parts, read_parts in mixes
        for fabric in _selected_fabric_names(scale.fabric_names)
    ]


def _figure8a_mix_cell(cell: Cell) -> float:
    write_parts = cell.param("write_parts")
    read_parts = cell.param("read_parts")
    messages = _synthetic_messages(
        cell, write_parts / (write_parts + read_parts)
    )
    fabric = fabric_by_name(cell.fabric, _cluster_config(cell))
    result = fabric.run_with_baselines(
        messages, deadline_ns=cell.param("deadline_ns")
    )
    return result.mean_normalized_latency()


def _figure8a_mix_reduce(
    cells: Sequence[Cell], results: Sequence
) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for cell, value in zip(cells, results):
        key = f"{cell.param('write_parts')}:{cell.param('read_parts')}"
        out.setdefault(key, {})[cell.fabric] = value
    return out


register(
    ExperimentSpec(
        name="figure8a_mix",
        description="Figure 8a (right panel): mixed write:read ratios at fixed load",
        build_cells=_figure8a_mix_cells,
        run_cell=_figure8a_mix_cell,
        reduce=_figure8a_mix_reduce,
        render=lambda grid: format_grid(
            grid, "Figure 8a — normalized latency vs write:read mix"
        ),
    )
)


# --------------------------------------------------------------------------- #
# Figure 8b: normalized MCT on application traces                              #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Figure8bScale:
    """Simulation scale for Figure 8b."""

    num_nodes: int = 144
    link_gbps: float = 100.0
    message_count: int = 20_000
    load: float = 0.6
    seed: int = 1
    deadline_ns: float = 5_000_000_000.0
    fabric_names: Optional[Sequence[str]] = None


def _figure8b_cells(
    apps: Optional[Sequence[str]] = None,
    scale: Figure8bScale = Figure8bScale(),
) -> List[Cell]:
    apps = list(apps) if apps is not None else all_apps()
    return [
        make_cell(
            "figure8b",
            fabric=fabric,
            load=scale.load,
            seed=scale.seed,
            scale=_scale_params(scale),
            extra={"app": app},
        )
        for app in apps
        for fabric in _selected_fabric_names(scale.fabric_names)
    ]


def _figure8b_cell(cell: Cell) -> float:
    trace = shared_workload(
        TraceSpec(
            app=cell.param("app"),
            num_nodes=cell.param("num_nodes"),
            link_gbps=cell.param("link_gbps"),
            load=cell.load,
            message_count=cell.param("message_count"),
            seed=cell.seed,
        )
    )
    fabric = fabric_by_name(cell.fabric, _cluster_config(cell))
    result = fabric.run(trace, deadline_ns=cell.param("deadline_ns"))
    return result.mean_normalized_mct(_calibrate_ideal(fabric))


def _figure8b_reduce(
    cells: Sequence[Cell], results: Sequence
) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for cell, value in zip(cells, results):
        out.setdefault(cell.param("app"), {})[cell.fabric] = value
    return out


register(
    ExperimentSpec(
        name="figure8b",
        description="Figure 8b: normalized MCT per application trace",
        build_cells=_figure8b_cells,
        run_cell=_figure8b_cell,
        reduce=_figure8b_reduce,
        render=lambda grid: format_grid(
            grid, "Figure 8b — normalized MCT per app trace"
        ),
    )
)


def _calibrate_ideal(fabric: Fabric):
    """Per-fabric ideal-MCT model from two unloaded probes.

    The ideal MCT is the completion time a message would see alone in the
    network (§4.3.2).  Probing one small and one large message per kind
    yields a linear latency-vs-size model that captures each fabric's own
    fixed overheads and effective per-byte serialization — including
    chunking/framing overheads — so normalization is fair across fabrics.
    """
    small, large = 64, 65536
    models = {}
    for is_read in (True, False):
        lat_small = fabric.measure_unloaded(small, is_read)
        lat_large = fabric.measure_unloaded(large, is_read)
        slope = (lat_large - lat_small) / (large - small)
        models[is_read] = (lat_small, slope)

    def ideal(message: OfferedMessage) -> float:
        base, slope = models[message.is_read]
        return max(1.0, base + slope * (message.size_bytes - small))

    return ideal


# --------------------------------------------------------------------------- #
# Formatting                                                                   #
# --------------------------------------------------------------------------- #


def format_grid(results: Dict, title: str) -> str:
    """Render nested {x: {fabric: value-or-dict}} results as a table."""
    lines = [title, "=" * len(title)]
    for x, per_fabric in results.items():
        parts = []
        for fabric, value in per_fabric.items():
            if isinstance(value, dict):
                detail = " ".join(
                    f"{k}={v:.2f}" for k, v in value.items() if k != "incomplete"
                )
                parts.append(f"{fabric}[{detail}]")
            else:
                parts.append(f"{fabric}={value:.2f}")
        lines.append(f"{x}: " + "  ".join(parts))
    return "\n".join(lines)


def summarize_shape_checks() -> Dict[str, bool]:
    """The paper's headline claims, checked from the analytic models."""
    ratios = latency_ratios()
    t1 = run_table1()
    edm = t1["EDM"]
    return {
        "edm_read_about_300ns": abs(edm["read_total_ns"] - 299.52) < 1.0,
        "edm_write_about_300ns": abs(edm["write_total_ns"] - 296.96) < 1.0,
        "read_3_7x_vs_raw": abs(ratios["Raw Ethernet"]["read"] - 3.7) < 0.2,
        "read_6_8x_vs_rdma": abs(ratios["RDMA (RoCEv2)"]["read"] - 6.8) < 0.2,
        "read_12_7x_vs_tcp": abs(ratios["TCP/IP in hardware"]["read"] - 12.7) < 0.2,
        "write_1_9x_vs_raw": abs(ratios["Raw Ethernet"]["write"] - 1.9) < 0.2,
        "write_3_4x_vs_rdma": abs(ratios["RDMA (RoCEv2)"]["write"] - 3.4) < 0.2,
        "write_6_4x_vs_tcp": abs(ratios["TCP/IP in hardware"]["write"] - 6.4) < 0.2,
    }
