"""Bench F6 — regenerates Figure 6 (KV throughput, EDM vs RDMA, YCSB A/B/F)."""

from repro.experiments import run_experiment


def test_figure6(benchmark, bench_jobs):
    rows = benchmark(lambda: run_experiment("figure6", jobs=bench_jobs))
    print("\nFigure 6 — million requests/sec (100 Gbps):")
    for row in rows:
        print(
            f"  YCSB-{row['workload']}: EDM {row['edm_mrps']:6.2f}  "
            f"RDMA {row['rdma_mrps']:6.2f}  speedup {row['speedup']:.2f}x"
        )
    assert all(row["speedup"] > 1.3 for row in rows)
