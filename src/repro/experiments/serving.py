"""The ``serving`` experiment: closed-loop KV serving profiles.

Registers a small catalog of :class:`~repro.apps.serving.ServingSpec`
profiles — steady multi-tenant mixes, diurnal and bursty demand, and a
degraded-memory-link composition — with the parallel experiment runner.
Each profile is one cell, so ``repro.cli run serving --jobs 4`` fans the
catalog out over workers and persists a JSON artifact whose rows carry
per-tenant p50/p99/p999 latency and SLO attainment.

Profiles are deliberately CI-sized (hundreds of ops); scale up with
``--ops-per-client`` / the ``ops_per_client`` option.  Like every
registered experiment, each profile cell is a pure function of spec +
seed, so the runner can resume it from a checkpoint without changing
the artifact (docs/RESILIENCE.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.apps.serving import ServingSpec, TenantSpec, run_serving
from repro.errors import ConfigError
from repro.experiments.runner import Cell, ExperimentSpec, make_cell, register
from repro.scenarios.spec import FaultSpec
from repro.workloads.api import RateShape

#: The serving profile catalog.  Keys are stable artifact identifiers.
PROFILES: Dict[str, ServingSpec] = {
    # Two steady tenants sharing the cluster: an update-heavy A tenant
    # next to a read-mostly B tenant with a tighter SLO.
    "steady_ab": ServingSpec(
        tenants=(
            TenantSpec(
                name="alpha", workload="A", clients=4,
                think_ns=2_000.0, keyspace=256, slo_ns=9_000.0,
            ),
            TenantSpec(
                name="beta", workload="B", clients=4,
                think_ns=1_500.0, keyspace=512, slo_ns=6_000.0,
            ),
        ),
        num_nodes=8, memory_nodes=2, ops_per_client=60,
    ),
    # The same tenants under opposite-phase diurnal swings: alpha peaks
    # while beta troughs, so aggregate demand stays interesting without
    # doubling.
    "diurnal_ab": ServingSpec(
        tenants=(
            TenantSpec(
                name="alpha", workload="A", clients=4,
                think_ns=2_000.0, keyspace=256, slo_ns=9_000.0,
                shape=RateShape(
                    kind="diurnal", period_ns=120_000.0, amplitude=0.8,
                ),
            ),
            TenantSpec(
                name="beta", workload="B", clients=4,
                think_ns=1_500.0, keyspace=512, slo_ns=6_000.0,
                shape=RateShape(
                    kind="diurnal", period_ns=160_000.0, amplitude=0.6,
                ),
            ),
        ),
        num_nodes=8, memory_nodes=2, ops_per_client=60,
    ),
    # A bursty read-modify-write tenant (flash crowds at 4x rate) over a
    # steady read-mostly background.
    "bursty_f": ServingSpec(
        tenants=(
            TenantSpec(
                name="flash", workload="F", clients=5,
                think_ns=2_500.0, keyspace=128, slo_ns=15_000.0,
                shape=RateShape(
                    kind="bursty", period_ns=60_000.0,
                    burst_factor=4.0, duty=0.25,
                ),
            ),
            TenantSpec(
                name="background", workload="B", clients=3,
                think_ns=2_000.0, keyspace=256, slo_ns=8_000.0,
            ),
        ),
        num_nodes=8, memory_nodes=2, ops_per_client=60,
    ),
    # Fault composition: one memory node's links renegotiate down to 15%
    # rate for the middle of the run (relative window over the horizon).
    "degraded_memlink": ServingSpec(
        tenants=(
            TenantSpec(
                name="alpha", workload="A", clients=4,
                think_ns=2_000.0, keyspace=256, slo_ns=9_000.0,
            ),
            TenantSpec(
                name="beta", workload="B", clients=4,
                think_ns=1_500.0, keyspace=512, slo_ns=6_000.0,
            ),
        ),
        num_nodes=8, memory_nodes=2, ops_per_client=60,
        faults=(
            FaultSpec(
                kind="degraded_bw", at_ns=0.3, until_ns=0.7,
                relative=True, factor=0.15, nodes=(7,),
            ),
        ),
        fault_horizon_ns=200_000.0,
    ),
}


def serving_profiles() -> List[str]:
    """Catalog profile names, sorted."""
    return sorted(PROFILES)


def serving_profile(name: str) -> ServingSpec:
    try:
        return PROFILES[name]
    except KeyError as exc:
        raise ConfigError(
            f"unknown serving profile {name!r} "
            f"(known: {', '.join(serving_profiles())})"
        ) from exc


# --------------------------------------------------------------------------- #
# Experiment-registry integration                                             #
# --------------------------------------------------------------------------- #


def _serving_cells(
    profiles: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
    ops_per_client: Optional[int] = None,
    num_nodes: Optional[int] = None,
) -> List[Cell]:
    selected = list(profiles) if profiles else serving_profiles()
    duplicates = {n for n in selected if selected.count(n) > 1}
    if duplicates:
        raise ConfigError(
            f"duplicate serving profile(s): {', '.join(sorted(duplicates))}"
        )
    cells = []
    for name in selected:
        spec = serving_profile(name)  # raises early on unknown names
        overrides = {}
        if ops_per_client is not None:
            overrides["ops_per_client"] = ops_per_client
        if num_nodes is not None:
            overrides["num_nodes"] = num_nodes
        cells.append(
            make_cell(
                "serving",
                seed=seed if seed is not None else spec.seed,
                scale=overrides,
                extra={"profile": name},
            )
        )
    return cells


def _serving_cell(cell: Cell) -> Dict[str, object]:
    spec = serving_profile(cell.param("profile"))
    return run_serving(
        spec.scaled(
            ops_per_client=cell.param("ops_per_client"),
            seed=cell.seed,
            num_nodes=cell.param("num_nodes"),
        )
    )


def _serving_reduce(
    cells: Sequence[Cell], results: Sequence
) -> Dict[str, Dict[str, object]]:
    return {cell.param("profile"): row for cell, row in zip(cells, results)}


# --------------------------------------------------------------------------- #
# Formatting                                                                  #
# --------------------------------------------------------------------------- #


def format_serving_results(reduced: Dict[str, Dict[str, object]]) -> str:
    """Human summary of a serving sweep's reduced results."""
    title = f"Closed-loop serving — {len(reduced)} profiles"
    lines = [title, "=" * len(title)]
    for name, row in reduced.items():
        totals = row["totals"]
        faults = ",".join(row["faults"]) if row["faults"] else "-"
        lines.append(
            f"  {name:<20} {totals['completed']:>5}/{totals['issued']:<5} ops  "
            f"p99 {totals['p99_ns']:9.1f} ns  "
            f"SLO {totals['slo_attainment'] * 100:5.1f}%  faults: {faults}"
        )
        for tenant, summary in row["tenants"].items():
            lines.append(
                f"    {tenant:<18} YCSB-{summary['workload']} "
                f"x{summary['clients']:<3} "
                f"p50 {summary['p50_ns']:8.1f}  p99 {summary['p99_ns']:8.1f}  "
                f"p999 {summary['p999_ns']:8.1f} ns  "
                f"SLO {summary['slo_attainment'] * 100:5.1f}%"
            )
    return "\n".join(lines)


register(
    ExperimentSpec(
        name="serving",
        description="Closed-loop multi-tenant KV serving with per-tenant SLOs",
        build_cells=_serving_cells,
        run_cell=_serving_cell,
        reduce=_serving_reduce,
        render=format_serving_results,
    )
)


__all__ = [
    "PROFILES",
    "format_serving_results",
    "serving_profile",
    "serving_profiles",
]
