"""Tests for the experiment drivers (small scales)."""

import dataclasses
import math

import pytest

from repro.experiments import (
    Figure8aScale,
    Figure8bScale,
    format_grid,
    run_experiment,
    run_figure5,
    run_table1,
    summarize_shape_checks,
)
from repro.experiments.figures import (
    _figure8a_cell,
    _figure8a_cells,
    _figure8a_reduce,
    shared_workload,
)
from repro.fabrics import ClusterConfig, fabric_by_name, fabric_names
from repro.workloads import SyntheticSpec
from repro.workloads.distributions import fixed_size

SMALL_8A = Figure8aScale(num_nodes=8, message_count=1200,
                         fabric_names=("EDM", "DCTCP"))
SMALL_8B = Figure8bScale(num_nodes=8, message_count=800, load=0.4,
                         fabric_names=("EDM", "CXL"))


class TestAnalyticDrivers:
    def test_table1_has_four_stacks(self):
        t1 = run_table1()
        assert set(t1) == {
            "TCP/IP in hardware", "RDMA (RoCEv2)", "Raw Ethernet", "EDM",
        }

    def test_all_shape_checks_pass(self):
        checks = summarize_shape_checks()
        assert all(checks.values()), checks

    def test_figure5_totals(self):
        f5 = run_figure5()
        assert 250 < f5["read_total_ns"] < 350
        assert 250 < f5["write_total_ns"] < 350

    def test_figure6_rows(self):
        rows = run_experiment("figure6")
        assert [r["workload"] for r in rows] == ["A", "B", "F"]
        assert all(r["speedup"] > 1.0 for r in rows)

    def test_figure7_rows(self):
        rows = run_experiment("figure7")
        assert len(rows) == 5
        for row in rows:
            assert row["edm_ns"] < row["rdma_ns"]


class TestSimulationDrivers:
    def test_figure8a_loads_small(self):
        results = run_experiment("figure8a", loads=(0.3,), scale=SMALL_8A)
        point = results[0.3]
        assert set(point) == {"EDM", "DCTCP"}
        for values in point.values():
            assert not math.isnan(values["read"])
            assert values["read"] >= 0.9
            assert values["incomplete"] == 0

    def test_figure8a_mix_small(self):
        results = run_experiment(
            "figure8a_mix", mixes=((50, 50),), load=0.4, scale=SMALL_8A
        )
        assert "50:50" in results
        assert results["50:50"]["EDM"] >= 0.9

    def test_figure8b_small(self):
        results = run_experiment("figure8b", apps=("memcached",), scale=SMALL_8B)
        assert set(results) == {"memcached"}
        for value in results["memcached"].values():
            assert value >= 0.9

    def test_format_grid_renders(self):
        results = run_experiment("figure8a", loads=(0.3,), scale=SMALL_8A)
        text = format_grid(results, "Figure 8a")
        assert "Figure 8a" in text and "EDM" in text

    def test_preemption_ablation(self):
        # §3.2.3: an 8 B RREQ behind a 1500 B frame finishes at block 193
        # without preemption and at block 1 with it.
        assert run_experiment("ablations", families=["preemption"]) == {
            "preemption": {"off": 193.0, "on": 1.0}
        }


def _spec(load=0.5, seed=1):
    return SyntheticSpec(
        num_nodes=6, link_gbps=100.0, load=load, message_count=200,
        size_cdf=fixed_size(64), seed=seed, incast_fraction=0.0,
    )


class TestSharedWorkload:
    def test_equal_spec_returns_the_same_tuple(self):
        first = shared_workload(_spec())
        assert isinstance(first, tuple)
        assert shared_workload(_spec()) is first
        assert list(first) == _spec().materialize()

    def test_different_seed_or_load_misses(self):
        base = shared_workload(_spec())
        other_seed = shared_workload(_spec(seed=2))
        assert other_seed is not base
        assert list(other_seed) == _spec(seed=2).materialize()
        other_load = shared_workload(_spec(load=0.9))
        assert other_load is not other_seed
        assert list(other_load) == _spec(load=0.9).materialize()

    def test_fabric_runs_leave_the_shared_tuple_intact(self):
        messages = shared_workload(_spec())
        fresh = _spec().materialize()
        config = ClusterConfig(num_nodes=6, seed=1)
        for name in fabric_names():
            fabric_by_name(name, config).run_with_baselines(messages)
        assert shared_workload(_spec()) is messages
        assert list(messages) == fresh
        with pytest.raises(dataclasses.FrozenInstanceError):
            messages[0].size_bytes = 1

    def test_figure8a_results_do_not_depend_on_cell_order(self):
        scale = Figure8aScale(num_nodes=6, message_count=300)
        cells = _figure8a_cells(loads=(0.4, 0.8), scale=scale)
        forward = [_figure8a_cell(cell) for cell in cells]
        backward = [_figure8a_cell(cell) for cell in reversed(cells)][::-1]
        assert _figure8a_reduce(cells, forward) == _figure8a_reduce(
            cells, backward
        )
