"""Bench F8b — normalized MCT on the five application traces.

Regenerates Figure 8b: mean message completion time, normalized by the
ideal (alone-in-the-network) completion time, for EDM and the baselines
on Hadoop / Spark / Spark SQL / GraphLab / Memcached traces.  The
(app, fabric) grid parallelizes with REPRO_BENCH_JOBS.
"""

from repro.experiments import format_grid, run_experiment


def test_figure8b_traces(benchmark, fig8b_scale, bench_jobs):
    # The full seven-protocol sweep on all five traces is long; bench the
    # protocols the paper's Figure 8b narrative centres on.
    scale = fig8b_scale
    apps = ("hadoop", "spark", "spark_sql", "graphlab", "memcached")

    def run():
        return run_experiment("figure8b", jobs=bench_jobs, apps=apps, scale=scale)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_grid(results, "Figure 8b — normalized MCT per app trace"))
    for app, per_fabric in results.items():
        edm = per_fabric["EDM"]
        # Shape: EDM close to ideal (paper: 1.2-1.4x; our DES sits a bit
        # higher on the heaviest tails), and far below the reactive and
        # credit-based fabrics; CXL up to ~8x EDM; Fastpass worst.
        assert edm < 6.0, (app, edm)
        assert per_fabric["DCTCP"] > edm, app
        assert per_fabric["CXL"] > edm, app
        assert per_fabric["Fastpass"] > per_fabric["CXL"], app
