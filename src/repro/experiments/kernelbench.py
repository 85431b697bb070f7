"""Kernel benchmark: the figure-8a smoke sweep under both event kernels.

Runs the same sweep with the tuple-heap kernel and the calendar-queue
reference, asserts the reduced results are bit-identical (the kernels must
replay the exact same event order), and reports events/sec for each —
the number ``BENCH_kernel.json`` tracks commit over commit.

A raw-kernel churn microbenchmark (hold-``k`` push/pop cycles straight
against the queue implementations, no model callbacks) isolates the
queue's own cost from the fabric models that dominate end-to-end cells.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Any, Dict, Optional, Sequence

from repro.errors import BenchmarkError
from repro.execution import atomic_write_json
from repro.experiments.runner import Runner, git_metadata
from repro.sim.engine import KERNELS, _KERNEL_TYPES

BENCH_SCHEMA_VERSION = 1


def _churn(kernel: str, depth: int, ops: int = 50_000) -> float:
    """Events/sec through a bare kernel holding ~``depth`` pending events."""
    random.seed(0)
    queue = _KERNEL_TYPES[kernel]()
    seq = itertools.count()
    gap = random.expovariate
    for _ in range(depth):
        queue.push_raw((gap(1.0) * 50.0, 0, next(seq), None))
    start = time.perf_counter()
    for _ in range(ops):
        entry = queue.pop()
        queue.push_raw((entry[0] + gap(1.0) * 50.0, 0, next(seq), None))
    elapsed = time.perf_counter() - start
    return ops / elapsed


def kernel_microbench(depths: Sequence[int] = (1_000, 10_000)) -> Dict[str, Any]:
    """Raw queue-operation throughput per kernel at several queue depths."""
    rows = []
    for depth in depths:
        row: Dict[str, Any] = {"depth": depth}
        for kernel in KERNELS:
            row[f"{kernel}_ops_per_s"] = round(_churn(kernel, depth))
        row["speedup"] = round(
            row["calendar_ops_per_s"] / row["heap_ops_per_s"], 2
        )
        rows.append(row)
    return {"workload": "hold-depth push/pop churn, exponential gaps", "rows": rows}


def run_kernel_bench(
    num_nodes: int = 16,
    message_count: int = 4_000,
    loads: Sequence[float] = (0.3, 0.8),
    seed: int = 1,
    jobs: int = 1,
    fabric_names: Optional[Sequence[str]] = None,
    depths: Sequence[int] = (1_000, 10_000),
) -> Dict[str, Any]:
    """Run the smoke sweep under both kernels; raises on any divergence."""
    from repro.experiments.figures import Figure8aScale

    sweeps: Dict[str, Any] = {}
    reduced: Dict[str, Any] = {}
    for kernel in KERNELS:
        scale = Figure8aScale(
            num_nodes=num_nodes,
            message_count=message_count,
            seed=seed,
            fabric_names=fabric_names,
            kernel=kernel,
        )
        result = Runner(jobs=jobs).run("figure8a", loads=tuple(loads), scale=scale)
        reduced[kernel] = result.reduced
        by_fabric: Dict[str, Dict[str, float]] = {}
        for cell, perf in zip(result.cells, result.cell_perf):
            if perf.get("attempts", 1) > 1 or perf.get("resumed"):
                # Retried cells carry fault wall-time and resumed cells
                # carry a stale one; the throughput series (and hence the
                # bench gate) must only see clean same-machine timings.
                continue
            agg = by_fabric.setdefault(
                cell.fabric, {"events": 0, "wall_s": 0.0}
            )
            agg["events"] += perf["events"]
            agg["wall_s"] += perf["wall_s"]
        for agg in by_fabric.values():
            agg["events_per_s"] = (
                round(agg["events"] / agg["wall_s"]) if agg["wall_s"] > 0 else 0
            )
            agg["wall_s"] = round(agg["wall_s"], 3)
        sweeps[kernel] = {**result.perf_summary(), "by_fabric": by_fabric}
    kernels = list(KERNELS)
    for other in kernels[1:]:
        if reduced[other] != reduced[kernels[0]]:
            raise BenchmarkError(
                f"kernel {other!r} produced different figure-8a results than "
                f"{kernels[0]!r} — the kernels must replay identical event orders"
            )
    calendar, heap = sweeps["calendar"], sweeps["heap"]
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "benchmark": "figure8a smoke sweep, calendar vs heap event kernel",
        "config": {
            "num_nodes": num_nodes,
            "message_count": message_count,
            "loads": list(loads),
            "seed": seed,
            "jobs": jobs,
        },
        "git": git_metadata(),
        "results_identical": True,
        "sweep": sweeps,
        "sweep_speedup": {
            "events_per_s": round(
                calendar["events_per_s"] / heap["events_per_s"], 2
            )
            if heap["events_per_s"]
            else None,
            "wall_s": round(heap["cell_wall_s"] / calendar["cell_wall_s"], 2)
            if calendar["cell_wall_s"]
            else None,
        },
        "kernel_microbench": kernel_microbench(depths),
    }


def write_kernel_bench(payload: Dict[str, Any], path: str = "BENCH_kernel.json") -> str:
    # Atomic so a crash mid-write can never leave a truncated baseline
    # for the bench gate to choke on.
    return atomic_write_json(path, payload, indent=2, sort_keys=False)


def format_kernel_bench(payload: Dict[str, Any]) -> str:
    lines = [payload["benchmark"], "=" * len(payload["benchmark"])]
    for kernel, sweep in payload["sweep"].items():
        lines.append(
            f"  {kernel:<9} {sweep['events']:>9} events in "
            f"{sweep['cell_wall_s']:.2f}s  ->  {sweep['events_per_s']:>8} ev/s"
        )
    speedup = payload["sweep_speedup"]["events_per_s"]
    lines.append(f"  sweep speedup (calendar vs heap): {speedup}x")
    for row in payload["kernel_microbench"]["rows"]:
        lines.append(
            f"  raw kernel @depth {row['depth']:>6}: "
            f"calendar {row['calendar_ops_per_s']:>8} ops/s  "
            f"heap {row['heap_ops_per_s']:>8} ops/s  ({row['speedup']}x)"
        )
    return "\n".join(lines)
