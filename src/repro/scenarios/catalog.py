"""Built-in scenario catalog: the fabric × workload × fault matrix.

Every entry is a :class:`~repro.scenarios.spec.ScenarioSpec` exercising
one corner the figure sweeps never reach: the four queueing-substrate
fabrics (PFC, DCTCP, pFabric, CXL) under incast storms, shuffle phases,
switch failovers, link outages, and degraded-bandwidth windows — plus
fault-free scheduled-fabric runs for contrast.  Scales are chosen so
the full catalog runs in seconds; the runner's scale overrides shrink
them further for CI smoke.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ScenarioError
from repro.scenarios.spec import FaultSpec, ScenarioSpec, WorkloadSpec


def _catalog() -> Dict[str, ScenarioSpec]:
    specs = (
        ScenarioSpec(
            name="pfc_incast_failover",
            description="PFC under write incast; primary switch dies mid-storm",
            fabric="PFC",
            workload=WorkloadSpec(kind="incast", load=0.6, message_count=1200,
                                  degree=8, write_fraction=1.0),
            faults=(FaultSpec(kind="failover", at_ns=0.3, relative=True),),
        ),
        ScenarioSpec(
            name="cxl_shuffle_degraded",
            description="CXL all-to-all shuffle through a quarter-rate window",
            fabric="CXL",
            workload=WorkloadSpec(kind="shuffle", load=0.5, message_count=960,
                                  size_bytes=1024, rounds=60),
            faults=(FaultSpec(kind="degraded_bw", at_ns=0.25, until_ns=0.75,
                              factor=0.25, relative=True),),
        ),
        ScenarioSpec(
            name="dctcp_incast_linkdown",
            description="DCTCP incast with the victim's links dark for a window",
            fabric="DCTCP",
            workload=WorkloadSpec(kind="incast", load=0.5, message_count=1000,
                                  degree=6, write_fraction=1.0),
            faults=(FaultSpec(kind="link_down", at_ns=0.3, until_ns=0.55,
                              nodes=(0, 1), relative=True),),
        ),
        ScenarioSpec(
            name="pfabric_shuffle_failover",
            description="pFabric shuffle; failover then primary repair",
            fabric="pFabric",
            workload=WorkloadSpec(kind="shuffle", load=0.6, message_count=800,
                                  size_bytes=512, rounds=50),
            faults=(FaultSpec(kind="failover", at_ns=0.2, until_ns=0.8,
                              relative=True),),
        ),
        ScenarioSpec(
            name="pfc_synthetic_degraded",
            description="PFC Poisson all-to-all with every link briefly at half rate",
            fabric="PFC",
            workload=WorkloadSpec(kind="synthetic", load=0.7,
                                  message_count=2000),
            faults=(FaultSpec(kind="degraded_bw", at_ns=0.15, until_ns=0.45,
                              factor=0.5, relative=True),),
        ),
        ScenarioSpec(
            name="cxl_incast_failover",
            description="CXL credit collapse under incast compounded by failover",
            fabric="CXL",
            workload=WorkloadSpec(kind="incast", load=0.4, message_count=800,
                                  degree=6, write_fraction=1.0),
            faults=(FaultSpec(kind="failover", at_ns=0.5, relative=True),),
        ),
        ScenarioSpec(
            name="dctcp_shuffle_degraded_linkdown",
            description="DCTCP shuffle: rate sag, then two nodes go dark",
            fabric="DCTCP",
            workload=WorkloadSpec(kind="shuffle", load=0.5, message_count=640,
                                  size_bytes=1024, rounds=40),
            faults=(
                FaultSpec(kind="degraded_bw", at_ns=0.1, until_ns=0.4,
                          factor=0.5, relative=True),
                FaultSpec(kind="link_down", at_ns=0.6, until_ns=0.85,
                          nodes=(2, 3), relative=True),
            ),
        ),
        ScenarioSpec(
            name="pfabric_incast_baseline",
            description="pFabric pure incast, fault-free reference point",
            fabric="pFabric",
            workload=WorkloadSpec(kind="incast", load=0.6, message_count=1200,
                                  degree=8, write_fraction=1.0),
        ),
        ScenarioSpec(
            name="edm_incast_baseline",
            description="EDM pure incast: scheduled fabric absorbing the storm",
            fabric="EDM",
            workload=WorkloadSpec(kind="incast", load=0.6, message_count=1200,
                                  degree=8, write_fraction=1.0),
        ),
        ScenarioSpec(
            name="edm_shuffle_baseline",
            description="EDM all-to-all shuffle, fault-free reference point",
            fabric="EDM",
            workload=WorkloadSpec(kind="shuffle", load=0.6, message_count=960,
                                  size_bytes=1024, rounds=60),
        ),
    )
    return {spec.name: spec for spec in specs}


SCENARIOS: Dict[str, ScenarioSpec] = _catalog()


def scenario_names() -> List[str]:
    """Catalog names, in definition order."""
    return list(SCENARIOS)


def scenario_by_name(name: str) -> ScenarioSpec:
    """Look up one scenario (exact name)."""
    try:
        return SCENARIOS[name]
    except KeyError as exc:
        raise ScenarioError(
            f"unknown scenario {name!r} (known: {', '.join(SCENARIOS)})"
        ) from exc
