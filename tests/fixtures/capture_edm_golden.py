"""Capture golden-seed EDM fixtures: completion records + stats.

Run from the repo root to (re)generate ``edm_golden.json``::

    PYTHONPATH=src python tests/fixtures/capture_edm_golden.py

The fixture pins the *bit-exact* behaviour of the EDM model — every
completion time and every stats counter, seed for seed — so performance
work on the hot path can prove it changed nothing observable.  The
matching test (``tests/test_edm_golden.py``) replays each config on the
heap kernel and on the sorted-list reference and compares against this
file.

Regenerating the fixture is only legitimate when the model's *semantics*
intentionally change; a perf PR must leave this file byte-stable.
"""

from __future__ import annotations

import json
import os
import sys

from repro.core.scheduler import Policy
from repro.fabrics.base import ClusterConfig
from repro.fabrics.edm import EdmFabric
from repro.workloads import SyntheticSpec
from repro.workloads.distributions import fixed_size

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "edm_golden.json")

#: Each case pins one (workload, cluster, policy) point.  Sizes above
#: ``chunk_bytes`` (256) exercise multi-chunk circuits; ``dram`` toggles
#: zero-latency memory (nonzero DRAM latency makes RRES grants queue
#: behind the memory read, exercising the pending-grant drain path).
CASES = [
    {
        "name": "bench_64B_load03",
        "num_nodes": 16, "size": 64, "load": 0.3, "seed": 1,
        "count": 600, "write_fraction": 0.5, "policy": "srpt", "dram": False,
    },
    {
        "name": "bench_64B_load08",
        "num_nodes": 16, "size": 64, "load": 0.8, "seed": 2,
        "count": 600, "write_fraction": 0.5, "policy": "srpt", "dram": False,
    },
    {
        "name": "multichunk_1500B",
        "num_nodes": 8, "size": 1500, "load": 0.5, "seed": 3,
        "count": 300, "write_fraction": 0.5, "policy": "srpt", "dram": False,
    },
    {
        "name": "multichunk_2048B_fcfs_dram",
        "num_nodes": 8, "size": 2048, "load": 0.7, "seed": 5,
        "count": 250, "write_fraction": 0.4, "policy": "fcfs", "dram": True,
    },
    {
        "name": "writeonly_backlog",
        "num_nodes": 4, "size": 64, "load": 0.9, "seed": 7,
        "count": 400, "write_fraction": 1.0, "policy": "srpt", "dram": False,
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
        incast_fraction=0.0,
    )
    return spec.materialize()


def run_case(case: dict):
    config = ClusterConfig(
        num_nodes=case["num_nodes"], link_gbps=100.0, seed=case["seed"]
    )
    fabric = EdmFabric(
        config,
        policy=Policy(case["policy"]),
        zero_dram_latency=not case["dram"],
    )
    return fabric.run(messages_for(case))


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
        result = run_case(case)
        payload["cases"][case["name"]] = {
            "config": case,
            **snapshot(result),
        }
        print(
            f"{case['name']}: {len(result.records)} records, "
            f"{result.stats.get('sim_events')} events"
        )
    with open(FIXTURE_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    sys.exit(main())
