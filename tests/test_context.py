"""SimContext wiring, uid determinism, and runner perf recording."""

from reference_kernel import KERNELS, replay_on

from repro.experiments import Runner, RunnerResult
from repro.experiments.figures import Figure8aScale
from repro.fabrics import ClusterConfig, fabric_by_name, fabric_names
from repro.fabrics.edm import EdmCluster
from repro.sim import Process, SimContext, Simulator, StatsSink
from repro.workloads.api import workload_from_spec
from repro.workloads.synthetic import SyntheticSpec
from repro.workloads.distributions import fixed_size


class TestSimContext:
    def test_create_builds_kernelled_simulator(self):
        ctx = SimContext.create(seed=3)
        assert type(ctx.sim) is Simulator
        assert ctx.now == 0.0

    def test_process_accepts_context_or_simulator(self):
        ctx = SimContext.create()
        by_context = Process(ctx, "a")
        assert by_context.sim is ctx.sim
        assert by_context.ctx is ctx
        sim = Simulator()
        by_sim = Process(sim, "b")
        assert by_sim.sim is sim
        assert by_sim.ctx is None

    def test_stats_sink_counters_and_series(self):
        stats = StatsSink()
        stats.incr("frames")
        stats.incr("frames", 2)
        stats.observe("depth", 1.0)
        stats.observe("depth", 3.0)
        snapshot = stats.to_dict()
        assert snapshot["frames"] == 3
        assert snapshot["depth_count"] == 2
        assert snapshot["depth_mean"] == 2.0

    def test_cluster_components_share_one_clock(self):
        config = ClusterConfig(num_nodes=4, seed=0)
        cluster = EdmCluster(config)
        # Components schedule through per-lane views (disjoint seq
        # streams), but every view shares the root simulator's clock and
        # pending set.
        assert cluster.switch.sim.root is cluster.sim
        for nic in cluster.nics.values():
            assert nic.sim.root is cluster.sim
            assert nic.ctx.stats is cluster.ctx.stats
        cluster.sim.run(until=0.0)
        assert cluster.switch.sim.now == cluster.sim.now

    def test_fabric_run_attaches_stats(self):
        config = ClusterConfig(num_nodes=4, seed=0)
        fabric = fabric_by_name("DCTCP", config)
        messages = workload_from_spec(
            SyntheticSpec(
                num_nodes=4, link_gbps=100.0, load=0.5,
                message_count=50, size_cdf=fixed_size(64), seed=1,
                incast_fraction=0.0,
            )
        ).materialize()
        result = fabric.run(messages, deadline_ns=1e9)
        assert result.stats["messages_offered"] == 50
        assert result.stats["sim_events"] > 0


class TestUidDeterminism:
    SPEC = dict(
        num_nodes=6, link_gbps=100.0, load=0.5, message_count=200,
        size_cdf=fixed_size(64), seed=5, incast_fraction=0.25,
    )

    def test_uids_are_zero_based_and_stable_across_runs(self):
        first = workload_from_spec(SyntheticSpec(**self.SPEC)).materialize()
        # Interleave an unrelated workload to pollute any global state.
        workload_from_spec(SyntheticSpec(**{**self.SPEC, "seed": 99})).materialize()
        second = workload_from_spec(SyntheticSpec(**self.SPEC)).materialize()
        assert [m.uid for m in first] == [m.uid for m in second]
        assert min(m.uid for m in first) == 0
        assert len({m.uid for m in first}) == len(first)

    def test_distinct_specs_each_start_at_zero(self):
        a = workload_from_spec(SyntheticSpec(**self.SPEC)).materialize()
        b = workload_from_spec(SyntheticSpec(**{**self.SPEC, "seed": 123})).materialize()
        assert min(m.uid for m in a) == 0
        assert min(m.uid for m in b) == 0


class TestRunnerPerf:
    def test_cells_record_wall_and_events(self):
        scale = Figure8aScale(
            num_nodes=4, message_count=200, fabric_names=("DCTCP",)
        )
        result = Runner(jobs=1).run("figure8a", loads=(0.5,), scale=scale)
        assert len(result.cell_perf) == len(result.cells)
        for perf in result.cell_perf:
            assert perf["events"] > 0
            assert perf["wall_s"] > 0
            assert perf["events_per_s"] > 0
        summary = result.perf_summary()
        assert summary["events"] == sum(p["events"] for p in result.cell_perf)

    def test_parallel_event_counts_match_serial(self):
        scale = Figure8aScale(
            num_nodes=4, message_count=200, fabric_names=("DCTCP", "IRD")
        )
        serial = Runner(jobs=1).run("figure8a", loads=(0.5,), scale=scale)
        parallel = Runner(jobs=2).run("figure8a", loads=(0.5,), scale=scale)
        assert [p["events"] for p in serial.cell_perf] == [
            p["events"] for p in parallel.cell_perf
        ]

    def test_kernel_threads_through_scale(self):
        # All seven fabrics over a two-load Figure 8a sweep, once on the
        # heap and once on the sorted-list reference kernel: the reduced
        # figure and per-cell event counts must match.
        heap, reference = (
            replay_on(kernel, lambda: Runner(jobs=1).run(
                "figure8a",
                loads=(0.3, 0.8),
                scale=Figure8aScale(num_nodes=16, message_count=1000),
            ))
            for kernel in KERNELS
        )
        assert len(reference.cells) == 2 * len(fabric_names())
        assert heap.reduced == reference.reduced
        assert [p["events"] for p in heap.cell_perf] == [
            p["events"] for p in reference.cell_perf
        ]

    def test_perf_summary_rate_skips_resumed_cells(self):
        perf = [
            {"events": 100, "wall_s": 1.0},
            {"events": 300, "wall_s": 1.0},
            {"events": 70, "wall_s": 7.0, "resumed": True},
        ]
        result = RunnerResult(
            experiment="figure8a", jobs=1, cells=[], cell_results=[],
            reduced=None, elapsed_s=2.5, cell_perf=perf,
        )
        summary = result.perf_summary()
        assert summary["events"] == 470
        assert summary["events_per_s"] == 200
        assert summary["cell_wall_s"] == 9.0
        assert summary["elapsed_s"] == 2.5
        assert summary["resumed_cells"] == 1
