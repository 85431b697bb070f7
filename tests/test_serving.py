"""Closed-loop serving: spec validation, SLO math, determinism, faults.

The serving subsystem's replay contract is the strongest in the repo:
one run must be bit-identical serial vs parallel (the runner fans
profiles over worker processes) and on the heap vs the sorted-list
reference kernel.  These
tests pin that, the percentile/SLO accounting, the closed-loop
semantics (ops complete, budgets honored, RMW chains), and fault
composition against the EDM cluster's links.
"""

import math

import pytest
from reference_kernel import KERNELS, replay_on

from repro.apps.serving import (
    ServingCluster,
    ServingSpec,
    TenantSpec,
    latency_percentiles,
    run_serving,
    slo_attainment,
)
from repro.errors import ConfigError
from repro.experiments import Runner, serving_profile, serving_profiles
from repro.host.nic import HostConfig
from repro.scenarios.spec import FaultSpec
from repro.workloads.api import RateShape


def _spec(**overrides):
    base = dict(
        tenants=(
            TenantSpec(name="a", workload="A", clients=3, keyspace=64,
                       slo_ns=10_000.0),
            TenantSpec(name="f", workload="F", clients=2, keyspace=32,
                       slo_ns=15_000.0),
        ),
        num_nodes=6,
        memory_nodes=2,
        ops_per_client=20,
        seed=0,
    )
    base.update(overrides)
    return ServingSpec(**base)


class TestSpecValidation:
    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            _spec(tenants=(TenantSpec(name="x"), TenantSpec(name="x")))

    def test_needs_a_compute_node(self):
        with pytest.raises(ConfigError, match="compute"):
            _spec(num_nodes=2, memory_nodes=2)

    def test_failover_fault_rejected(self):
        with pytest.raises(ConfigError, match="queueing substrate"):
            _spec(faults=(FaultSpec(kind="failover", at_ns=100.0),))

    def test_relative_fault_needs_horizon(self):
        fault = FaultSpec(kind="link_down", at_ns=0.5, until_ns=0.8, relative=True)
        with pytest.raises(ConfigError, match="fault_horizon_ns"):
            _spec(faults=(fault,))
        _spec(faults=(fault,), fault_horizon_ns=50_000.0)  # ok with horizon

    @pytest.mark.parametrize("field", ["deadline_ns", "fault_horizon_ns"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_deadline_and_horizon_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ConfigError, match="must be positive"):
            _spec(**{field: value})

    def test_tenant_validation(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="")
        with pytest.raises(ConfigError):
            TenantSpec(name="t", clients=0)
        with pytest.raises(ConfigError):
            TenantSpec(name="t", think_ns=0.0)
        with pytest.raises(ConfigError):
            TenantSpec(name="t", slo_ns=-1.0)

    def test_scaled_overrides_only_what_is_given(self):
        spec = _spec()
        scaled = spec.scaled(ops_per_client=99)
        assert scaled.ops_per_client == 99
        assert scaled.seed == spec.seed
        assert scaled.tenants == spec.tenants


class TestSloMath:
    def test_percentiles_of_known_sample(self):
        lat = list(range(1, 1001))  # 1..1000
        p = latency_percentiles(lat)
        assert p["p50_ns"] == pytest.approx(500.5)
        assert p["p99_ns"] == pytest.approx(990.01)
        assert p["p999_ns"] == pytest.approx(999.001)

    def test_percentiles_empty_sample_is_nan(self):
        p = latency_percentiles([])
        assert all(math.isnan(v) for v in p.values())

    def test_slo_attainment_counts_boundary_as_met(self):
        assert slo_attainment([1.0, 2.0, 3.0, 4.0], 3.0) == 0.75
        assert slo_attainment([5.0], 5.0) == 1.0
        assert math.isnan(slo_attainment([], 10.0))

    def test_totals_weight_each_tenants_own_slo(self):
        # Tenant "a" has a 10us SLO, tenant "f" 15us: the aggregate
        # attainment must check each latency against its tenant's SLO,
        # not a global one.
        row = run_serving(_spec())
        met = sum(
            round(row["tenants"][name]["slo_attainment"]
                  * row["tenants"][name]["completed"])
            for name in row["tenants"]
        )
        expected = met / row["totals"]["completed"]
        assert row["totals"]["slo_attainment"] == pytest.approx(expected)


class TestClosedLoop:
    def test_all_ops_complete_and_budgets_honored(self):
        spec = _spec()
        row = run_serving(spec)
        assert row["totals"]["issued"] == spec.total_clients * spec.ops_per_client
        assert row["totals"]["completed"] == row["totals"]["issued"]
        assert row["totals"]["incomplete"] == 0
        for tenant in spec.tenants:
            summary = row["tenants"][tenant.name]
            assert summary["issued"] == tenant.clients * spec.ops_per_client
            assert summary["completed"] == summary["issued"]

    def test_workload_f_issues_rmw_not_update(self):
        row = run_serving(_spec(ops_per_client=40))
        ops_f = row["tenants"]["f"]["ops"]
        assert ops_f["rmw"] > 0
        assert ops_f["update"] == 0
        ops_a = row["tenants"]["a"]["ops"]
        assert ops_a["update"] > 0
        assert ops_a["rmw"] == 0

    def test_latencies_are_positive_and_row_is_json_ready(self):
        import json

        row = run_serving(_spec())
        assert row["totals"]["mean_ns"] > 0
        assert row["totals"]["p50_ns"] <= row["totals"]["p99_ns"]
        assert row["totals"]["p99_ns"] <= row["totals"]["p999_ns"]
        json.dumps(row)  # everything must serialize

    def test_deadline_cuts_the_run_short(self):
        full = run_serving(_spec(seed=1))
        cut = run_serving(_spec(seed=1, deadline_ns=full["makespan_ns"] / 4))
        assert cut["totals"]["issued"] < full["totals"]["issued"]
        assert cut["makespan_ns"] <= full["makespan_ns"] / 4

    def test_stale_read_timers_do_not_stretch_the_makespan(self):
        # With the §3.3 read timer on, each read's timer outlives the read
        # and pops after the last completion; the drained makespan still
        # ends at that completion, as in the run without timers.
        plain = run_serving(_spec(seed=1))
        cluster = ServingCluster(_spec(seed=1))
        for nic in cluster.cluster.nics.values():
            nic.config = HostConfig(read_timeout_ns=1_000_000.0)
        timed = cluster.run()
        assert cluster.sim.now > plain["makespan_ns"] + 1_000_000.0 / 2
        assert timed["makespan_ns"] == plain["makespan_ns"]
        assert timed["totals"] == plain["totals"]

    def test_bursty_shape_shortens_makespan(self):
        steady = run_serving(_spec())
        bursty = run_serving(
            _spec(
                tenants=(
                    TenantSpec(
                        name="a", workload="A", clients=3, keyspace=64,
                        slo_ns=10_000.0,
                        shape=RateShape(
                            kind="bursty", period_ns=20_000.0,
                            burst_factor=6.0, duty=0.5,
                        ),
                    ),
                    TenantSpec(name="f", workload="F", clients=2, keyspace=32,
                               slo_ns=15_000.0),
                )
            )
        )
        # Rate modulation divides think time, so the bursty tenant's
        # clients cycle faster and the whole run drains sooner.
        assert bursty["makespan_ns"] < steady["makespan_ns"]


class TestDeterminism:
    def test_calendar_and_heap_kernels_agree(self):
        """The heap replays the sorted-list reference's serving run."""
        heap, reference = (
            replay_on(kernel, lambda: run_serving(_spec())) for kernel in KERNELS
        )
        assert reference == heap

    def test_repeat_runs_are_bit_identical(self):
        assert run_serving(_spec(seed=5)) == run_serving(_spec(seed=5))

    def test_seed_changes_the_run(self):
        assert (
            run_serving(_spec(seed=1))["makespan_ns"]
            != run_serving(_spec(seed=2))["makespan_ns"]
        )

    def test_parallel_matches_serial_through_the_runner(self):
        serial = Runner(jobs=1).run("serving", ops_per_client=15)
        parallel = Runner(jobs=2).run("serving", ops_per_client=15)
        assert serial.reduced == parallel.reduced

    def test_runner_kernel_override_is_bit_identical(self):
        """A serving sweep through the runner replays on the reference."""
        heap, reference = (
            replay_on(kernel, lambda: Runner(jobs=1).run(
                "serving", profiles=("steady_ab",), ops_per_client=15
            ).reduced)
            for kernel in KERNELS
        )
        assert reference == heap


class TestFaults:
    def test_degraded_link_raises_latency(self):
        fault = FaultSpec(
            kind="degraded_bw", at_ns=0.0, until_ns=1e9, factor=0.05,
            nodes=tuple(range(6)),
        )
        healthy = run_serving(_spec(seed=3))
        degraded = run_serving(_spec(seed=3, faults=(fault,)))
        assert degraded["totals"]["mean_ns"] > healthy["totals"]["mean_ns"]
        assert degraded["fault_summary"]
        assert degraded["faults"]

    def test_fault_free_run_reports_empty_fault_fields(self):
        row = run_serving(_spec())
        assert row["faults"] == []


class TestProfiles:
    def test_catalog_names(self):
        assert serving_profiles() == [
            "bursty_f", "degraded_memlink", "diurnal_ab", "steady_ab"
        ]

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError, match="unknown serving profile"):
            serving_profile("nope")

    def test_profile_specs_validate(self):
        for name in serving_profiles():
            spec = serving_profile(name)
            assert spec.tenants

    def test_duplicate_profile_selection_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            Runner(jobs=1).run(
                "serving", profiles=("steady_ab", "steady_ab")
            )
