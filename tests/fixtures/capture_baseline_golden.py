"""Capture golden-seed fixtures for the six §4.3 baseline fabrics.

Run from the repo root to (re)generate ``baseline_golden.json``::

    PYTHONPATH=src python tests/fixtures/capture_baseline_golden.py

The fixture pins the *bit-exact* behaviour of PFC, DCTCP, pFabric, CXL,
IRD and Fastpass — every completion time, the incomplete count and every
stats counter, seed for seed — so performance work on the queueing
substrate can prove it changed nothing observable.  The cases are chosen
to drive each baseline's defining mechanism: DCTCP/pFabric buffer drops,
and PFC pauses and CXL credit stalls under incast.
The matching test (``tests/test_baseline_golden.py``) replays each case
on the heap kernel and on the sorted-list reference and compares against
this file.

Regenerating the fixture is only legitimate when a baseline's *semantics*
intentionally change; a perf PR must leave this file byte-stable.
"""

from __future__ import annotations

import json
import os
import sys

from repro.fabrics import fabric_by_name
from repro.fabrics.base import ClusterConfig
from repro.workloads import SyntheticSpec
from repro.workloads.distributions import fixed_size

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "baseline_golden.json")

#: Every non-EDM fabric of Figure 8, in the legend's order.
BASELINES = ("IRD", "pFabric", "PFC", "DCTCP", "CXL", "Fastpass")

CASES = [
    {
        "name": "fig8a_64B_load09",
        "num_nodes": 16, "size": 64, "load": 0.9, "seed": 1,
        "count": 800, "write_fraction": 0.5,
        "incast_fraction": 0.0, "incast_degree": 8,
    },
    {
        "name": "incast15_1500B",
        "num_nodes": 16, "size": 1500, "load": 0.8, "seed": 2,
        "count": 700, "write_fraction": 0.5,
        "incast_fraction": 0.5, "incast_degree": 15,
    },
    {
        "name": "incast12_4KB_writes",
        "num_nodes": 16, "size": 4096, "load": 0.9, "seed": 2,
        "count": 600, "write_fraction": 0.5,
        "incast_fraction": 0.5, "incast_degree": 12,
    },
]


def messages_for(case: dict):
    spec = SyntheticSpec(
        num_nodes=case["num_nodes"],
        link_gbps=100.0,
        load=case["load"],
        message_count=case["count"],
        size_cdf=fixed_size(case["size"]),
        write_fraction=case["write_fraction"],
        seed=case["seed"],
        incast_fraction=case["incast_fraction"],
        incast_degree=case["incast_degree"],
    )
    return spec.materialize()


def run_case(case: dict, fabric: str):
    config = ClusterConfig(
        num_nodes=case["num_nodes"], link_gbps=100.0, seed=case["seed"]
    )
    return fabric_by_name(fabric, config).run(messages_for(case))


def snapshot(result) -> dict:
    return {
        "records": [
            [r.message.uid, r.completed_at]
            for r in sorted(result.records, key=lambda r: r.message.uid)
        ],
        "incomplete": result.incomplete,
        "stats": result.stats,
    }


def main() -> None:
    payload = {"cases": {}}
    for case in CASES:
        runs = {}
        for fabric in BASELINES:
            result = run_case(case, fabric)
            runs[fabric] = snapshot(result)
            print(
                f"{case['name']}/{fabric}: {len(result.records)} records, "
                f"{result.stats.get('sim_events')} events, "
                f"{result.stats.get('frames_dropped', 0)} drops"
            )
        payload["cases"][case["name"]] = {"config": case, "fabrics": runs}
    with open(FIXTURE_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    sys.exit(main())
