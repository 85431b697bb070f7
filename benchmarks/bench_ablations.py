"""Ablation benches for the design choices DESIGN.md §5 calls out.

* chunk size vs latency (§3.1.3),
* X — max active notifications per pair (§4.3: X=3 best),
* FCFS vs SRPT under light- vs heavy-tailed workloads (§3.1.1),
* PIM iteration budget vs matching quality (§3.1.2),
* early port release on/off (§3.1.1 step 7),
* intra-frame preemption on/off (§3.2.3),
* incast stress (the limitation-6 scenario).

Every family runs as a registered experiment through the parallel
runner; set REPRO_BENCH_JOBS to fan a family's settings out over worker
processes.
"""

from repro.experiments import run_experiment

NODES = 16


def family(name, jobs):
    return run_experiment(
        "ablations", jobs=jobs, families=(name,), num_nodes=NODES
    )[name]


def test_ablation_chunk_size(benchmark, bench_jobs):
    def run():
        return family("chunk", bench_jobs)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nchunk size -> normalized latency:", {k: round(v, 3) for k, v in results.items()})
    assert all(v < 4.0 for v in results.values())


def test_ablation_x_active_notifications(benchmark, bench_jobs):
    def run():
        return family("x_active", bench_jobs)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nX -> normalized latency:", {k: round(v, 3) for k, v in results.items()})
    # §4.3: X=3 works best; at minimum it should not lose to X=1.
    assert results["3"] <= results["1"] * 1.05


def test_ablation_fcfs_vs_srpt(benchmark, bench_jobs):
    def run():
        return family("policy", bench_jobs)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\ntail/policy -> normalized:", {k: round(v, 3) for k, v in results.items()})
    # §3.1.1 property 4: SRPT helps heavy-tailed workloads.
    assert results["heavy/SRPT"] <= results["heavy/FCFS"] * 1.1


def test_ablation_pim_iterations(benchmark, bench_jobs):
    def run():
        return family("pim_iters", bench_jobs)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nPIM iterations -> normalized:", {k: round(v, 3) for k, v in results.items()})
    # More iterations -> better (or equal) matching -> no worse latency.
    assert results["maximal"] <= results["1"] * 1.05


def test_ablation_early_release(benchmark, bench_jobs):
    def run():
        return family("early_release", bench_jobs)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nport release -> normalized:", {k: round(v, 3) for k, v in results.items()})
    # §3.1.1 step 7: waiting for full reception wastes bandwidth.
    assert results["early"] <= results["late"]


def test_ablation_preemption(benchmark, bench_jobs):
    def run():
        return family("preemption", bench_jobs)

    results = benchmark(run)
    print(f"\npreemption off/on -> memory done at block {results}")
    assert results["on"] * 20 < results["off"]


def test_ablation_incast_stress(benchmark, bench_jobs):
    def run():
        return family("incast", bench_jobs)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nincast fraction -> EDM normalized:", {k: round(v, 3) for k, v in results.items()})
    # EDM's proactive scheduler keeps even heavy incast bounded.
    assert all(v < 2.5 for v in results.values())
