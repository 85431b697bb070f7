"""Tests for the scenario engine: specs, catalog, runner, CLI, artifacts."""

import json
import math
from dataclasses import replace

import pytest
from reference_kernel import replay_on

from repro.cli import main
from repro.errors import FabricError, ScenarioError
from repro.experiments import Runner, artifact_payload, get_experiment
from repro.scenarios import (
    SCENARIOS,
    FaultSpec,
    ScenarioSpec,
    WorkloadSpec,
    build_messages,
    check_conservation,
    run_scenario,
    scenario_by_name,
    scenario_names,
)

SMALL = dict(num_nodes=6, message_count=100)


class TestSpecs:
    def test_unknown_fabric_rejected(self):
        with pytest.raises(FabricError):
            ScenarioSpec(name="x", description="", fabric="infiniband")

    def test_faults_require_faultable_fabric(self):
        with pytest.raises(ScenarioError, match="fault injection"):
            ScenarioSpec(
                name="x", description="", fabric="EDM",
                faults=(FaultSpec(kind="failover", at_ns=10.0),),
            )

    @pytest.mark.parametrize("deadline", [0.0, -1.0, math.nan, math.inf])
    def test_deadline_must_be_positive_and_finite(self, deadline):
        with pytest.raises(ScenarioError, match="deadline"):
            ScenarioSpec(
                name="x", description="", fabric="EDM", deadline_ns=deadline
            )

    def test_unknown_fault_kind(self):
        with pytest.raises(ScenarioError):
            FaultSpec(kind="meteor_strike", at_ns=0.0)

    def test_window_faults_need_an_end(self):
        with pytest.raises(ScenarioError):
            FaultSpec(kind="link_down", at_ns=5.0)

    def test_window_must_be_ordered(self):
        with pytest.raises(ScenarioError):
            FaultSpec(kind="degraded_bw", at_ns=10.0, until_ns=10.0)

    def test_relative_fault_resolves_against_span(self):
        fault = FaultSpec(
            kind="degraded_bw", at_ns=0.25, until_ns=0.75, relative=True
        )
        absolute = fault.resolved(1000.0)
        assert absolute.at_ns == 250.0
        assert absolute.until_ns == 750.0
        assert not absolute.relative
        assert fault.describe() == "degraded_bw@25-75%"

    def test_absolute_fault_resolves_to_itself(self):
        fault = FaultSpec(kind="failover", at_ns=42.0)
        assert fault.resolved(1e9) is fault

    def test_overlapping_degraded_windows_rejected(self):
        with pytest.raises(ScenarioError, match="overlapping degraded_bw"):
            ScenarioSpec(
                name="x", description="", fabric="PFC",
                faults=(
                    FaultSpec(kind="degraded_bw", at_ns=0.1, until_ns=0.5,
                              relative=True),
                    FaultSpec(kind="degraded_bw", at_ns=0.3, until_ns=0.8,
                              relative=True),
                ),
            )

    def test_disjoint_degraded_windows_allowed(self):
        spec = ScenarioSpec(
            name="x", description="", fabric="PFC",
            faults=(
                FaultSpec(kind="degraded_bw", at_ns=0.1, until_ns=0.3,
                          relative=True, nodes=(0,)),
                FaultSpec(kind="degraded_bw", at_ns=0.2, until_ns=0.6,
                          relative=True, nodes=(1,)),
            ),
        )
        assert len(spec.faults) == 2

    def test_mixed_time_modes_on_shared_links_rejected(self):
        with pytest.raises(ScenarioError, match="same time mode"):
            ScenarioSpec(
                name="x", description="", fabric="PFC",
                faults=(
                    FaultSpec(kind="degraded_bw", at_ns=0.1, until_ns=0.3,
                              relative=True),
                    FaultSpec(kind="degraded_bw", at_ns=5e6, until_ns=6e6),
                ),
            )

    def test_unknown_workload_kind(self):
        with pytest.raises(ScenarioError):
            WorkloadSpec(kind="chaos")

    def test_trace_needs_app(self):
        with pytest.raises(ScenarioError):
            WorkloadSpec(kind="trace")

    def test_scaled_overrides(self):
        spec = scenario_by_name("pfc_incast_failover").scaled(
            num_nodes=4, message_count=50, seed=9
        )
        assert spec.num_nodes == 4
        assert spec.workload.message_count == 50
        assert spec.seed == 9

    def test_to_dict_is_json_ready(self):
        payload = scenario_by_name("dctcp_incast_linkdown").to_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestCatalog:
    def test_at_least_six_fault_scenarios(self):
        faulted = [s for s in SCENARIOS.values() if s.faults]
        assert len(faulted) >= 6

    def test_failover_and_degraded_on_orphan_fabrics(self):
        orphans = {"PFC", "DCTCP", "pFabric", "CXL"}
        kinds_on_orphans = {
            f.kind
            for s in SCENARIOS.values()
            if s.fabric in orphans
            for f in s.faults
        }
        assert {"failover", "degraded_bw", "link_down"} <= kinds_on_orphans

    def test_all_four_orphans_covered(self):
        assert {"PFC", "DCTCP", "pFabric", "CXL"} <= {
            s.fabric for s in SCENARIOS.values()
        }

    def test_unknown_scenario(self):
        with pytest.raises(ScenarioError):
            scenario_by_name("nope")

    def test_workloads_generate_at_spec_scale(self):
        for spec in SCENARIOS.values():
            messages = build_messages(spec)
            assert len(messages) == spec.workload.message_count


class TestEngine:
    def test_runs_conserve_and_fire_faults(self):
        for name in ("pfc_incast_failover", "cxl_shuffle_degraded"):
            row = run_scenario(scenario_by_name(name).scaled(**SMALL))
            assert check_conservation(row)
            assert row["fault_summary"]["faults_fired"] >= 1
            assert row["mean_latency_ns"] > 0

    def test_deterministic_across_runs_and_kernels(self):
        spec = scenario_by_name("dctcp_incast_linkdown").scaled(**SMALL)
        first = run_scenario(spec)
        second = run_scenario(spec)
        reference = replay_on("reference", lambda: run_scenario(spec))
        assert first == second == reference

    def test_fault_free_variant_is_faster(self):
        spec = scenario_by_name("cxl_shuffle_degraded").scaled(**SMALL)
        faulty = run_scenario(spec)
        clean = run_scenario(replace(spec, faults=()))
        assert faulty["mean_latency_ns"] > clean["mean_latency_ns"]


class TestRunnerIntegration:
    def test_parallel_matches_serial(self):
        names = ["pfc_incast_failover", "pfabric_incast_baseline"]
        serial = Runner(jobs=1).run("scenarios", names=names, **SMALL).reduced
        parallel = Runner(jobs=2).run("scenarios", names=names, **SMALL).reduced
        assert serial == parallel

    def test_artifact_schema(self):
        result = Runner(jobs=1).run(
            "scenarios", names=["dctcp_incast_linkdown"], **SMALL
        )
        payload = artifact_payload(result, config=SMALL, created_at="t")
        assert payload["experiment"] == "scenarios"
        assert payload["schema"] == 1
        assert payload["perf"]["events"] > 0
        [cell] = payload["cells"]
        assert cell["extra"]["scenario"] == "dctcp_incast_linkdown"
        assert cell["fabric"] == "DCTCP"
        assert cell["perf"]["events"] > 0
        row = payload["results"]["dctcp_incast_linkdown"]
        for key in (
            "scenario", "fabric", "workload", "offered", "completed",
            "incomplete", "duplicate_completions", "mean_latency_ns",
            "p99_latency_ns", "makespan_ns", "faults", "fault_summary",
            "stats",
        ):
            assert key in row, key
        assert json.loads(json.dumps(payload, default=str))  # serializable

    def test_unknown_name_fails_at_grid_build(self):
        with pytest.raises(ScenarioError):
            get_experiment("scenarios").build_cells(names=["bogus"])

    def test_duplicate_names_fail_at_grid_build(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            get_experiment("scenarios").build_cells(
                names=["edm_incast_baseline", "edm_incast_baseline"]
            )


EXPECTED_LIST = """\
  name                             fabric   workload  faults                               description
  pfc_incast_failover              PFC      incast    failover@30%                         PFC under write incast; primary switch dies mid-storm
  cxl_shuffle_degraded             CXL      shuffle   degraded_bw@25-75%                   CXL all-to-all shuffle through a quarter-rate window
  dctcp_incast_linkdown            DCTCP    incast    link_down@30-55%                     DCTCP incast with the victim's links dark for a window
  pfabric_shuffle_failover         pFabric  shuffle   failover@20-80%                      pFabric shuffle; failover then primary repair
  pfc_synthetic_degraded           PFC      synthetic degraded_bw@15-45%                   PFC Poisson all-to-all with every link briefly at half rate
  cxl_incast_failover              CXL      incast    failover@50%                         CXL credit collapse under incast compounded by failover
  dctcp_shuffle_degraded_linkdown  DCTCP    shuffle   degraded_bw@10-40%,link_down@60-85%  DCTCP shuffle: rate sag, then two nodes go dark
  pfabric_incast_baseline          pFabric  incast    -                                    pFabric pure incast, fault-free reference point
  edm_incast_baseline              EDM      incast    -                                    EDM pure incast: scheduled fabric absorbing the storm
  edm_shuffle_baseline             EDM      shuffle   -                                    EDM all-to-all shuffle, fault-free reference point
"""


class TestCli:
    def test_scenario_list_golden(self, capsys):
        main(["scenario", "list"])
        assert capsys.readouterr().out == EXPECTED_LIST

    def test_scenario_run_prints_summary_and_writes_artifact(
        self, capsys, tmp_path
    ):
        main(
            [
                "scenario", "run", "pfabric_incast_baseline",
                "--nodes", "6", "--messages", "80",
                "--out", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert "Scenario sweep — 1 scenarios" in out
        assert "pfabric_incast_baseline" in out
        artifacts = list((tmp_path / "scenarios").glob("*.json"))
        assert len(artifacts) == 1
        payload = json.loads(artifacts[0].read_text())
        assert "pfabric_incast_baseline" in payload["results"]

    def test_scenario_names_listed_in_order(self):
        assert scenario_names()[0] == "pfc_incast_failover"
        assert len(scenario_names()) == len(SCENARIOS) == 10
