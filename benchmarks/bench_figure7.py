"""Bench F7 — regenerates Figure 7 (YCSB latency vs local:remote split)."""

from repro.experiments import run_experiment


def test_figure7(benchmark, bench_jobs):
    rows = benchmark(lambda: run_experiment("figure7", jobs=bench_jobs))
    print("\nFigure 7 — mean YCSB-A latency (ns) vs placement:")
    for row in rows:
        print(
            f"  {row['split']:>7}: EDM {row['edm_ns']:7.1f}  "
            f"CXL {row['cxl_ns']:7.1f}  RDMA {row['rdma_ns']:7.1f}"
        )
    for row in rows:
        assert row["edm_ns"] <= 1.3 * row["cxl_ns"]
        assert row["edm_ns"] < row["rdma_ns"]
