#!/usr/bin/env python3
"""Cluster-scale protocol comparison (a small Figure 8a).

Simulates a disaggregated cluster under an all-to-all 64 B read/write
microbenchmark and compares EDM against the six baseline fabrics at two
network loads, reporting latency normalized by each protocol's unloaded
latency — the paper's Figure 8a metric.

Run:  python examples/disaggregated_cluster.py  (takes a minute or two)
"""

from repro.experiments import Figure8aScale, run_experiment


def main() -> None:
    scale = Figure8aScale(num_nodes=16, message_count=6_000)
    results = run_experiment("figure8a", loads=(0.2, 0.8), scale=scale)
    print("Normalized 64 B latency (mean / unloaded), per protocol:")
    for load, per_fabric in results.items():
        print(f"\n  load {load}:")
        for fabric, values in per_fabric.items():
            print(
                f"    {fabric:>9}: read {values['read']:6.2f}x  "
                f"write {values['write']:6.2f}x"
            )
    print(
        "\nExpected shape (paper): EDM stays within ~1.2-1.3x of unloaded at"
        " every load; IRD is close at low load and degrades; the reactive"
        " and credit-based fabrics inflate at high load; Fastpass is far"
        " off at every load (central-server control bottleneck)."
    )


if __name__ == "__main__":
    main()
