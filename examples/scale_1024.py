"""A 1024-node scale point — the sweep size the event kernel unlocks.

The paper evaluates a 144-node cluster (§4.3); the ROADMAP pushes toward
production scale.  This example runs the §4.3.1 microbenchmark on a
1024-node cluster for a receiver-driven (IRD) and a reactive (DCTCP)
fabric, printing completion statistics and the simulator's events/sec so
the throughput at scale is visible.

EDM's 9-bit node ids cap it at ``--nodes 512``.
``examples/scale_8192.py`` reuses :func:`run_point` as its smoke driver.

Run::

    PYTHONPATH=src python examples/scale_1024.py [--nodes 1024]
    [--messages 20000] [--fabrics IRD,DCTCP]
"""

import argparse
import time

from repro.fabrics import ClusterConfig, fabric_by_name
from repro.sim import process_events_executed
from repro.workloads.synthetic import microbenchmark


def build_arg_parser(
    nodes: int = 1024, fabrics: str = "IRD,DCTCP"
) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=nodes)
    parser.add_argument("--messages", type=int, default=20_000)
    parser.add_argument("--load", type=float, default=0.7)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--fabrics", type=str, default=fabrics)
    return parser


def run_point(
    name: str,
    messages,
    *,
    nodes: int,
    seed: int,
    deadline_ns: float = 50_000_000.0,
) -> None:
    """Run one fabric over ``messages`` and print its scale report line."""
    config = ClusterConfig(num_nodes=nodes, link_gbps=100.0, seed=seed)
    fabric = fabric_by_name(name, config)
    events_before = process_events_executed()
    start = time.perf_counter()
    result = fabric.run(messages, deadline_ns=deadline_ns)
    wall = time.perf_counter() - start
    events = process_events_executed() - events_before
    mean = result.mean_latency_ns()
    print(
        f"{name:>9}: {len(result.records)}/{len(messages)} completed, "
        f"mean latency {mean:8.1f} ns | {events} events in {wall:.2f}s "
        f"({events / wall / 1e3:.0f}k ev/s)"
    )


def main() -> None:
    args = build_arg_parser().parse_args()
    print(f"generating {args.messages} messages across {args.nodes} nodes ...")
    messages = microbenchmark(
        num_nodes=args.nodes,
        link_gbps=100.0,
        load=args.load,
        message_count=args.messages,
        seed=args.seed,
    )
    for name in args.fabrics.split(","):
        run_point(name, messages, nodes=args.nodes, seed=args.seed)


if __name__ == "__main__":
    main()
