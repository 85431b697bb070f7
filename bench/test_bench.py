"""Tests of the benchmark harness: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import child  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
from layers import (  # noqa: E402
    OTHER, CallGraph, attribute, layer_names, layer_of_path, package_layers,
)

PACKAGE = run.SRC / "repro"
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# --------------------------------------------------------------------------- #
# Layer map and attribution                                                   #
# --------------------------------------------------------------------------- #


def test_layer_map_covers_every_package_exactly_once():
    packages = package_layers(str(PACKAGE))
    on_disk = {
        "repro" + ("" if d == PACKAGE else "." + ".".join(d.relative_to(PACKAGE).parts))
        for d in [PACKAGE, *PACKAGE.rglob("*")]
        if d.is_dir() and (d / "__init__.py").is_file()
    }
    assert set(packages) == on_disk
    layers = layer_names(str(PACKAGE))
    assert sorted(set(packages.values())) == layers
    assert packages["repro"] == "cli"
    assert packages["repro.core"] == "core"
    assert packages["repro.core.scheduler"] == "core.scheduler"
    for module in PACKAGE.rglob("*.py"):
        assert layer_of_path(str(module), str(PACKAGE)) in layers
    assert layer_of_path(str(BENCH_DIR / "run.py"), str(PACKAGE)) is None


def test_builtins_are_charged_to_their_calling_layer():
    sim = ("src/repro/sim/engine.py", 1, "run")
    host = ("src/repro/host/nic.py", 1, "send")
    length = ("~", 0, "<built-in method builtins.len>")
    heappush = ("/usr/lib/heapq.py", 1, "heappush")
    wrapper = ("bench/child.py", 1, "schedule")
    layers = {sim: "sim", host: "host"}
    graph = CallGraph(
        self_time={sim: 1.0, host: 2.0, length: 0.4, heappush: 0.3, wrapper: 0.05},
        edges={
            (sim, host): (10, 2.0, 2.5),
            (sim, length): (3, 0.3, 0.3),
            (host, length): (1, 0.1, 0.1),
            # a stdlib function called from sim passes its time (and that
            # of the builtin it calls) up to sim
            (sim, heappush): (4, 0.3, 0.5),
            (heappush, length): (0, 0.0, 0.0),
            # a wrapper outside every layer, called from sim, calling host
            (sim, wrapper): (2, 0.05, 0.2),
            (wrapper, host): (2, 0.0, 0.15),
        },
    )
    out = attribute(graph, layers.get)
    assert out["self_s"]["sim"] == pytest.approx(1.0 + 0.3 + 0.3 + 0.05)
    assert out["self_s"]["host"] == pytest.approx(2.0 + 0.1)
    assert out["self_s"].get(OTHER, 0.0) == pytest.approx(0.0)
    assert sum(out["self_s"].values()) == pytest.approx(sum(graph.self_time.values()))
    # sim -> host directly (10) and through the wrapper sim owns (2)
    assert out["calls_in"] == {"host": 12}


def test_time_with_no_caller_goes_to_other():
    orphan = ("/usr/lib/threading.py", 1, "run")
    graph = CallGraph(self_time={orphan: 0.2}, edges={})
    assert attribute(graph, lambda f: None)["self_s"] == {OTHER: 0.2}


# --------------------------------------------------------------------------- #
# Output checks                                                               #
# --------------------------------------------------------------------------- #


def _pass(digest="d", ops=100, incomplete=0, nonfinite=0):
    return {"digest": digest, "ops": ops, "incomplete": incomplete, "nonfinite": nonfinite}


def test_failed_ops_are_counted_from_every_check():
    passes = [
        _pass(incomplete=3),
        _pass(nonfinite=1),
        _pass(digest="other"),  # disagrees with the majority: all ops fail
        None,  # crashed child: fails as many ops as a full pass
        _pass(),
    ]
    attempted, failed, digest = run.check_passes(passes)
    assert digest == "d"
    assert attempted == 500
    assert failed == 3 + 1 + 100 + 100


def test_clean_passes_fail_nothing_and_all_crashed_has_no_digest():
    assert run.check_passes([_pass(), _pass()]) == (200, 0, "d")
    assert run.check_passes([None, None]) == (0, 0, None)


def test_artifact_checks():
    assert child.count_nonfinite({"a": [1.0, float("nan")], "b": {"c": float("inf")}}) == 2
    assert child.count_nonfinite({"a": 1, "b": "x", "c": 2.5}) == 0
    rows = {
        "p": {"totals": {"issued": 10, "completed": 10}},
        "q": {"totals": {"issued": 8, "completed": 5}},
    }
    assert child.serving_ops(rows) == (18, 3)
    assert child.results_digest({"b": 1, "a": 2}) == child.results_digest({"a": 2, "b": 1})


# --------------------------------------------------------------------------- #
# Comparator                                                                  #
# --------------------------------------------------------------------------- #

BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]


@pytest.mark.parametrize(
    "change, expected",
    [
        ([v * 0.9 for v in BASE], "improved"),
        (list(BASE), "no worse"),
        ([v * 1.02 for v in BASE], "no worse"),
        ([v * 1.2 for v in BASE], "regressed"),
        ([5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0], "unresolved"),
    ],
)
def test_comparator_verdicts(change, expected):
    assert compare.verdict(BASE, change, 0.1, "lower") == expected


def test_comparator_direction_and_wide_but_separated_runs():
    assert compare.verdict(BASE, [v * 1.2 for v in BASE], 0.1, "higher") == "improved"
    wide = [1.0, 2.0, 1.0, 2.0]
    assert compare.verdict(wide, [0.2, 0.3, 0.2, 0.3], 0.1, "lower") == "improved"
    # every change run beats every base run, but by less than the base IQR
    assert compare.verdict(wide, [0.5, 0.9, 0.99, 0.9], 0.1, "lower") == "no worse"


def _saved(tmp_path, name, dirty, wall):
    runs = [
        {"workload": "w", "seed": 1, "trace": 0, "results_digest": "d",
         "result": {"correct": True, "attempted": 10, "failed": 0,
                    "metrics": {"wall_s": {"value": v, "unit": "s"}}}}
        for v in wall
    ]
    path = tmp_path / name
    path.write_text(json.dumps({"meta": {"dirty": dirty}, "runs": runs}))
    return str(path)


def test_comparator_refuses_a_dirty_base(tmp_path, capsys):
    dirty = _saved(tmp_path, "a.json", True, BASE)
    clean = _saved(tmp_path, "b.json", False, BASE)
    assert compare.main([dirty, clean]) == 2
    assert compare.main([dirty, clean, "--allow-dirty"]) == 0
    regressed = _saved(tmp_path, "c.json", False, [v * 1.5 for v in BASE])
    assert compare.main([clean, regressed]) == 1
    assert "regressed: w wall_s" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# BENCHMARK.json                                                              #
# --------------------------------------------------------------------------- #


def test_benchmark_json_names_and_limits():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCHMARK["workloads"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()


# --------------------------------------------------------------------------- #
# End to end through the driver                                               #
# --------------------------------------------------------------------------- #

SMOKE = run.Workload(
    "smoke",
    ("figure8a", "--fabrics", "EDM,DCTCP", "--nodes", "4", "--messages", "200",
     "--loads", "0.5"),
)


def test_smoke_workload_untraced():
    measured = run.measure(SMOKE, seed=1, seconds=0, trace=False)
    result = measured["result"]
    assert result["correct"] and result["failed"] == 0
    # 3 passes x 2 fabrics x (200 messages + 2 unloaded probes)
    assert result["attempted"] == 3 * 2 * 202
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert measured["results_digest"] == run.measure(SMOKE, 1, 0, False)["results_digest"]


def test_smoke_workload_traced():
    result = run.measure(SMOKE, seed=2, seconds=0, trace=True)["result"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"]
    assert set(metrics) == set(run.per_layer_units())
    named = sum(v for k, v in metrics.items() if k.endswith(".share"))
    assert named >= 0.95
    assert metrics["core.scheduler.rounds"] > 0 and metrics["sim.events"] > 0


def test_baseline_fabrics_never_enter_edm_layers():
    baselines = run.Workload(
        "smoke_baselines",
        ("figure8a", "--fabrics", "DCTCP,Fastpass", "--nodes", "4",
         "--messages", "200", "--loads", "0.5"),
    )
    metrics = run.measure(baselines, seed=1, seconds=0, trace=True)["result"]["metrics"]
    for layer in ("host", "switchfab", "core.scheduler", "memctrl"):
        assert metrics[f"{layer}.calls_in"]["value"] == 0
    assert metrics["core.scheduler.rounds"]["value"] == 0


def test_no_program_means_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "fig8a_edm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
