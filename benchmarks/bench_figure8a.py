"""Bench F8a — normalized latency vs load, all seven protocols.

Regenerates Figure 8a's two load-sweep panels (reads and writes) and the
mixed write:read panel at load 0.8.  Run with ``--benchmark-only``; scale
with REPRO_BENCH_NODES / REPRO_BENCH_MESSAGES and parallelize the
(load, fabric) grid with REPRO_BENCH_JOBS.
"""

from repro.experiments import format_grid, run_experiment


def test_figure8a_load_sweep(benchmark, fig8a_scale, bench_jobs):
    loads = (0.2, 0.5, 0.8, 0.9)

    def run():
        return run_experiment(
            "figure8a", jobs=bench_jobs, loads=loads, scale=fig8a_scale
        )

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_grid(results, "Figure 8a — normalized 64 B latency vs load"))
    # Shape checks: EDM within its paper bound at every load; the reactive
    # pack degrades at high load while EDM does not.
    for load, per_fabric in results.items():
        assert per_fabric["EDM"]["read"] < 1.45
        assert per_fabric["EDM"]["write"] < 1.5
    high = results[0.9]
    assert high["DCTCP"]["read"] > high["EDM"]["read"]
    assert high["CXL"]["read"] > high["EDM"]["read"]
    assert high["Fastpass"]["read"] > 5.0


def test_figure8a_mixed_ratios(benchmark, fig8a_scale, bench_jobs):
    mixes = ((100, 0), (50, 50), (0, 100))

    def run():
        return run_experiment(
            "figure8a_mix", jobs=bench_jobs, mixes=mixes, load=0.8,
            scale=fig8a_scale,
        )

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_grid(results, "Figure 8a — mixed write:read at load 0.8"))
    for mix, per_fabric in results.items():
        assert per_fabric["EDM"] < 1.5  # paper: within 1.3x for mixes
