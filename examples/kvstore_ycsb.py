#!/usr/bin/env python3
"""Remote key-value store under YCSB (Figures 6-7).

Runs a functional KV store over the EDM DES cluster with a YCSB-A
operation stream, then prints the Figure 6 throughput comparison (EDM vs
RDMA) and the Figure 7 latency-vs-placement table.

Run:  python examples/kvstore_ycsb.py
"""

from repro.apps.kvstore import RemoteKvStore
from repro.experiments import run_experiment
from repro.fabrics.base import ClusterConfig
from repro.fabrics.edm import EdmCluster
from repro.memctrl.dram import DramTiming
from repro.sim.rng import make_rng
from repro.workloads.ycsb import WORKLOAD_A, OpType, ZipfianKeyChooser


def main() -> None:
    config = ClusterConfig(num_nodes=2, link_gbps=100.0)
    cluster = EdmCluster(
        config,
        dram_timing=DramTiming(row_hit_ns=46.0, row_miss_ns=82.0),
        memory_bytes=1 << 20,
    )
    store = RemoteKvStore(cluster, compute_node=0, memory_node=1, capacity=256)

    rng = make_rng(7)
    chooser = ZipfianKeyChooser(256, seed=int(rng.integers(0, 2**31)))
    ops = [(WORKLOAD_A.draw(rng.random()), chooser.next_key()) for _ in range(200)]
    latencies = []

    def issue(index: int = 0) -> None:
        if index >= len(ops):
            return
        op, key = ops[index]

        def done(completion, i=index):
            latencies.append(completion.latency_ns)
            issue(i + 1)

        if op is OpType.READ:
            store.get(key, done)
        else:
            store.put(key, done)

    issue(0)
    cluster.sim.run()

    mean = sum(latencies) / len(latencies)
    print(f"YCSB-A over EDM DES: {len(latencies)} ops, mean latency {mean:.1f} ns")
    print()

    print("Figure 6 — KV throughput (Mrps), EDM vs RDMA:")
    for row in run_experiment("figure6"):
        print(
            f"  YCSB-{row['workload']}: EDM {row['edm_mrps']:6.2f}  "
            f"RDMA {row['rdma_mrps']:6.2f}  ({row['speedup']:.2f}x)"
        )
    print()
    print("Figure 7 — mean YCSB-A latency (ns) vs local:remote placement:")
    for row in run_experiment("figure7"):
        print(
            f"  {row['split']:>7}: EDM {row['edm_ns']:7.1f}  "
            f"CXL {row['cxl_ns']:7.1f}  RDMA {row['rdma_ns']:7.1f}"
        )


if __name__ == "__main__":
    main()
