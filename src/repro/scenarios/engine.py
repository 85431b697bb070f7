"""Scenario engine: run declarative scenarios through the experiment runner.

:func:`run_scenario` executes one :class:`ScenarioSpec` — generate the
workload shape, build the fabric from the tagged registry, install the
fault injector through the substrate's topology hook, run to drain (or
deadline) — and returns a JSON-ready result row.

The module also registers the ``scenarios`` experiment with the parallel
runner's registry, so catalog sweeps fan out over worker processes and
persist artifacts exactly like the figure experiments::

    repro.cli scenario run --jobs 4          # the whole catalog
    repro.cli scenario run pfc_incast_failover cxl_shuffle_degraded

Scenario cells are pure functions of their spec + seed, which is what
lets the runner resume half-finished catalog sweeps from a checkpoint
journal with bit-identical results (docs/RESILIENCE.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ScenarioError
from repro.fabrics import ClusterConfig, fabric_info
from repro.scenarios.catalog import scenario_by_name, scenario_names
from repro.scenarios.faults import FaultInjector
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
from repro.experiments.runner import (
    Cell,
    ExperimentSpec,
    make_cell,
    register,
)
from repro.workloads.api import workload_from_spec
from repro.workloads.distributions import fixed_size
from repro.workloads.shapes import IncastSpec, ShuffleSpec
from repro.workloads.synthetic import SyntheticSpec
from repro.workloads.traces import TraceSpec


def _workload_spec(spec: ScenarioSpec):
    """Map a scenario's WorkloadSpec onto a concrete workload spec."""
    w: WorkloadSpec = spec.workload
    if w.kind == "synthetic":
        return SyntheticSpec(
            num_nodes=spec.num_nodes,
            link_gbps=spec.link_gbps,
            load=w.load,
            message_count=w.message_count,
            size_cdf=fixed_size(w.size_bytes),
            write_fraction=w.write_fraction,
            seed=spec.seed,
        )
    if w.kind == "incast":
        return IncastSpec(
            num_nodes=spec.num_nodes,
            link_gbps=spec.link_gbps,
            load=w.load,
            message_count=w.message_count,
            size_bytes=w.size_bytes,
            degree=w.degree,
            write_fraction=w.write_fraction,
            seed=spec.seed,
            victim=None if w.victim < 0 else w.victim,
        )
    if w.kind == "shuffle":
        rounds = w.rounds
        if rounds <= 0 or rounds * spec.num_nodes < w.message_count:
            rounds = max(1, -(-w.message_count // spec.num_nodes))
        return ShuffleSpec(
            num_nodes=spec.num_nodes,
            link_gbps=spec.link_gbps,
            load=w.load,
            rounds=rounds,
            size_bytes=w.size_bytes,
            write_fraction=w.write_fraction,
            seed=spec.seed,
        )
    return TraceSpec(
        app=w.app,
        num_nodes=spec.num_nodes,
        link_gbps=spec.link_gbps,
        load=w.load,
        message_count=w.message_count,
        seed=spec.seed,
    )


def build_messages(spec: ScenarioSpec):
    """Generate the offered workload for one scenario.

    Materializes here (rather than streaming) because relative fault
    times resolve against the offered arrival span, which needs the full
    list up front.
    """
    messages = workload_from_spec(_workload_spec(spec)).materialize()
    # Shuffle rounds are derived, so over-generation is possible; clamp
    # to the scenario's requested count.
    return messages[: spec.workload.message_count]


def run_scenario(spec: ScenarioSpec) -> Dict[str, object]:
    """Execute one scenario; returns a JSON-ready result row."""
    messages = build_messages(spec)
    config = ClusterConfig(
        num_nodes=spec.num_nodes,
        link_gbps=spec.link_gbps,
        seed=spec.seed,
        topology=spec.topology,
    )
    fabric = fabric_info(spec.fabric).factory(config)
    # Relative fault times resolve against the offered arrival span, so a
    # "failover at 30%" lands mid-run at any scale.
    span_ns = max((m.arrival_ns for m in messages), default=0.0) or 1.0
    injector = FaultInjector(tuple(f.resolved(span_ns) for f in spec.faults))
    if spec.faults:
        # Only fault-capable fabrics reach here (ScenarioSpec validates:
        # 'faultable' for the full queueing machinery incl. failover,
        # 'linkfault' for fabrics exposing link faults through their own
        # SubstrateTopology surface).
        fabric.topology_hook = injector.install
    result = fabric.run(messages, deadline_ns=spec.deadline_ns)

    latencies = np.asarray(result.latencies(), dtype=np.float64)
    completed_uids = [r.message.uid for r in result.records]
    row: Dict[str, object] = {
        "scenario": spec.name,
        "fabric": result.fabric,
        "workload": spec.workload.kind,
        "num_nodes": spec.num_nodes,
        "seed": spec.seed,
        "topology": spec.topology,
        "faults": [f.describe() for f in spec.faults],
        "offered": len(messages),
        "completed": len(result.records),
        "incomplete": result.incomplete,
        "duplicate_completions": len(completed_uids) - len(set(completed_uids)),
        "mean_latency_ns": float(latencies.mean()) if latencies.size else None,
        "p99_latency_ns": (
            float(np.percentile(latencies, 99)) if latencies.size else None
        ),
        "makespan_ns": (
            max(r.completed_at for r in result.records)
            if result.records else None
        ),
        "fault_summary": injector.summary(),
        "stats": result.stats,
    }
    return row


# --------------------------------------------------------------------------- #
# Experiment-registry integration                                             #
# --------------------------------------------------------------------------- #


def _scenario_cells(
    names: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
    num_nodes: Optional[int] = None,
    message_count: Optional[int] = None,
    topology: Optional[str] = None,
) -> List[Cell]:
    selected = list(names) if names else scenario_names()
    duplicates = {n for n in selected if selected.count(n) > 1}
    if duplicates:
        # The reduction keys rows by scenario name; duplicates would
        # silently collapse to one row while running every cell.
        raise ScenarioError(
            f"duplicate scenario name(s): {', '.join(sorted(duplicates))}"
        )
    cells = []
    for name in selected:
        spec = scenario_by_name(name)  # raises early on unknown names
        overrides = {}
        if num_nodes is not None:
            overrides["num_nodes"] = num_nodes
        if message_count is not None:
            overrides["message_count"] = message_count
        if topology is not None:
            overrides["topology"] = topology
        cells.append(
            make_cell(
                "scenarios",
                fabric=spec.fabric,
                seed=seed if seed is not None else spec.seed,
                scale=overrides,
                extra={"scenario": name},
            )
        )
    return cells


def _scenario_cell(cell: Cell) -> Dict[str, object]:
    spec = scenario_by_name(cell.param("scenario"))
    return run_scenario(
        spec.scaled(
            num_nodes=cell.param("num_nodes"),
            message_count=cell.param("message_count"),
            seed=cell.seed,
            topology=cell.param("topology"),
        )
    )


def _scenario_reduce(
    cells: Sequence[Cell], results: Sequence
) -> Dict[str, Dict[str, object]]:
    return {cell.param("scenario"): row for cell, row in zip(cells, results)}


register(
    ExperimentSpec(
        name="scenarios",
        description="Scenario engine: declarative fabric × workload × fault sweeps",
        build_cells=_scenario_cells,
        run_cell=_scenario_cell,
        reduce=_scenario_reduce,
    )
)


# --------------------------------------------------------------------------- #
# Formatting                                                                  #
# --------------------------------------------------------------------------- #


def format_scenario_list() -> str:
    """The ``repro scenario list`` table (golden-tested; keep stable)."""
    lines = [
        f"  {'name':<32} {'fabric':<8} {'workload':<9} "
        f"{'faults':<36} description"
    ]
    for name in scenario_names():
        spec = scenario_by_name(name)
        lines.append(
            f"  {spec.name:<32} {spec.fabric:<8} {spec.workload.kind:<9} "
            f"{spec.faults_summary():<36} {spec.description}"
        )
    return "\n".join(lines)


def format_scenario_results(reduced: Dict[str, Dict[str, object]]) -> str:
    """Human summary of a scenario sweep's reduced results."""
    title = f"Scenario sweep — {len(reduced)} scenarios"
    lines = [title, "=" * len(title)]
    for name, row in reduced.items():
        mean = row.get("mean_latency_ns")
        p99 = row.get("p99_latency_ns")
        lat = (
            f"mean {mean:9.1f} ns  p99 {p99:9.1f} ns"
            if mean is not None and p99 is not None
            else "no completions"
        )
        faults = ",".join(row["faults"]) if row["faults"] else "-"
        lines.append(
            f"  {name:<32} {row['fabric']:<8} "
            f"{row['completed']:>5}/{row['offered']:<5} {lat}  faults: {faults}"
        )
    return "\n".join(lines)


def check_conservation(row: Dict[str, object]) -> bool:
    """Offered messages are conserved: every one completed or accounted
    incomplete, none duplicated."""
    return (
        row["completed"] + row["incomplete"] == row["offered"]
        and row["duplicate_completions"] == 0
    )


__all__ = [
    "build_messages",
    "check_conservation",
    "format_scenario_list",
    "format_scenario_results",
    "run_scenario",
    "scenario_by_name",
    "scenario_names",
]
