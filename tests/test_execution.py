"""Fault-tolerance tests: supervision, chaos injection, checkpoints, atomics.

Every recovery behaviour asserted here is driven by the deterministic
``REPRO_CHAOS`` injector (docs/RESILIENCE.md), so the tests *prove* the
execution layer's contract instead of hoping a real crash shows up:

* chaos-killed and chaos-hung workers cost a bounded retry, never the
  grid, and the recovered artifact is bit-identical to a fault-free run;
* a run resumed from a crash-truncated checkpoint journal reduces to the
  same artifact as a clean run;
* a chaos spec naming a key its fault kind does not take is a typed
  error, not a fault that silently never fires;
* an interrupted artifact write never leaves truncated JSON at the
  final path.
"""

import json
import os
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CellTimeoutError,
    ConfigError,
    ExecutionError,
    ReproError,
)
from repro.execution import (
    CheckpointWriter,
    SupervisionPolicy,
    atomic_write_json,
    grid_fingerprint,
    load_checkpoint,
    new_checkpoint_path,
    parse_chaos,
    reset_chaos_state,
    supervised_map,
)
from repro.execution.chaos import CHAOS_EXIT_CODE, ChaosFault, find_fault
from repro.execution.supervisor import (
    BACKOFF_ENV,
    MAX_ATTEMPTS_ENV,
    TIMEOUT_ENV,
)
from repro.experiments import (
    ExperimentSpec,
    Runner,
    artifact_payload,
    make_cell,
    register,
    write_artifact,
)

# --------------------------------------------------------------------------- #
# A trivial registered experiment for supervision tests.  Module-level so
# fork-started workers resolve it from their inherited registry.
# --------------------------------------------------------------------------- #


def _toy_cells(count=4, seed=1):
    return [make_cell("exec_toy", seed=seed, extra={"i": i}) for i in range(count)]


def _toy_run(cell):
    i = cell.param("i")
    return {"i": i, "value": i * 10 + cell.seed}


def _toy_reduce(cells, results):
    return {str(c.param("i")): r for c, r in zip(cells, results)}


TOY = register(
    ExperimentSpec(
        name="exec_toy",
        description="deterministic toy grid for execution-layer tests",
        build_cells=_toy_cells,
        run_cell=_toy_run,
        reduce=_toy_reduce,
    )
)


@contextmanager
def _env(**pairs):
    """Set/unset env vars for the block; always restores and resets chaos."""
    saved = {key: os.environ.get(key) for key in pairs}
    for key, value in pairs.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        reset_chaos_state()


#: Chaos runs should not sleep through real backoff delays.
_FAST = {BACKOFF_ENV: "0"}


def _reduced_sections(result):
    """The determinism-bearing artifact sections (timings excluded)."""
    payload = artifact_payload(result, created_at="T")
    for volatile in ("elapsed_s", "jobs", "perf", "incidents", "git"):
        payload.pop(volatile, None)
    for record in payload["cells"]:
        record.pop("perf", None)
    return json.dumps(payload, sort_keys=True)


# --------------------------------------------------------------------------- #
# Chaos grammar                                                               #
# --------------------------------------------------------------------------- #


class TestChaosGrammar:
    def test_parse_fault_list(self):
        faults = parse_chaos(
            "kill_worker:cell=3;hang:cell=1:hold_s=2.5;partial_artifact:count=2"
        )
        assert faults[0] == ChaosFault(kind="kill_worker", params=(("cell", 3),))
        assert faults[1].kind == "hang"
        assert faults[1].param("hold_s") == 2.5
        assert faults[2] == ChaosFault(kind="partial_artifact", count=2)

    def test_count_param_sets_budget_not_target(self):
        (fault,) = parse_chaos("kill_worker:cell=0:count=3")
        assert fault.count == 3
        assert fault.matches("kill_worker", {"cell": 0})

    def test_matches_requires_every_targeting_param(self):
        (fault,) = parse_chaos("kill_worker:cell=2")
        assert fault.matches("kill_worker", {"cell": 2})
        assert not fault.matches("kill_worker", {"cell": 1})
        assert not fault.matches("kill_worker", {})
        assert not fault.matches("hang", {"cell": 2})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_chaos("explode:cell=1")

    def test_malformed_param_rejected(self):
        with pytest.raises(ConfigError):
            parse_chaos("hang:cell")
        with pytest.raises(ConfigError):
            parse_chaos("kill_worker:count=0")
        with pytest.raises(ConfigError):
            parse_chaos("kill_worker:count=two")

    @pytest.mark.parametrize("text", [
        "kill_worker:cel=3",        # typo of cell=
        "kill_worker:shard=1",      # the removed shard target
        "hang:shard=1:hold_s=2",
        "partial_artifact:cell=1",  # partial_artifact only takes count=
    ])
    def test_unknown_param_rejected(self, text):
        with pytest.raises(ConfigError, match="unknown chaos param"):
            parse_chaos(text)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_runner_rejects_bad_env_before_running(self, jobs):
        with _env(REPRO_CHAOS="kill_worker:shard=1", **_FAST):
            with pytest.raises(ConfigError, match="unknown chaos param"):
                Runner(jobs=jobs).run("exec_toy")

    def test_empty_env_means_no_faults(self):
        with _env(REPRO_CHAOS=None):
            assert find_fault("kill_worker", cell=0) is None

    def test_find_fault_reads_environment(self):
        with _env(REPRO_CHAOS="hang:cell=1"):
            assert find_fault("hang", cell=1) is not None
            assert find_fault("hang", cell=0) is None
            assert find_fault("kill_worker", cell=1) is None


# --------------------------------------------------------------------------- #
# Supervision policy                                                          #
# --------------------------------------------------------------------------- #


class TestSupervisionPolicy:
    def test_env_knobs(self):
        with _env(**{TIMEOUT_ENV: "2.5", MAX_ATTEMPTS_ENV: "5", BACKOFF_ENV: "0"}):
            policy = SupervisionPolicy.from_env()
        assert policy.timeout_s == 2.5
        assert policy.max_attempts == 5
        assert policy.backoff_base_s == 0

    def test_bad_env_raises_config_error(self):
        with _env(**{TIMEOUT_ENV: "soon"}):
            with pytest.raises(ConfigError):
                SupervisionPolicy.from_env()

    def test_validation(self):
        with pytest.raises(ConfigError):
            SupervisionPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            SupervisionPolicy(timeout_s=-1.0)
        with pytest.raises(ConfigError):
            SupervisionPolicy(backoff_base_s=-0.1)

    def test_timeout_explicit_beats_adaptive(self):
        policy = SupervisionPolicy(timeout_s=7.0)
        assert policy.cell_timeout_s(100.0) == 7.0

    def test_timeout_adapts_to_slowest_observed_cell(self):
        policy = SupervisionPolicy(timeout_scale=8.0, timeout_floor_s=5.0)
        assert policy.cell_timeout_s(None) == policy.default_timeout_s
        assert policy.cell_timeout_s(2.0) == 16.0
        assert policy.cell_timeout_s(0.01) == 5.0  # floor

    def test_backoff_is_deterministic_and_bounded(self):
        policy = SupervisionPolicy(backoff_base_s=0.1, backoff_cap_s=1.0)
        first = policy.backoff_s("exp", 3, 1)
        assert first == policy.backoff_s("exp", 3, 1)
        assert policy.backoff_s("exp", 4, 1) != first  # decorrelated
        for attempt in range(1, 8):
            delay = policy.backoff_s("exp", 0, attempt)
            assert 0.0 <= delay <= 1.0 * 1.5  # cap times max jitter
        assert SupervisionPolicy(backoff_base_s=0.0).backoff_s("exp", 0, 1) == 0.0

    def test_error_hierarchy_is_single_rooted(self):
        assert issubclass(ExecutionError, ReproError)
        assert issubclass(CellTimeoutError, ExecutionError)


# --------------------------------------------------------------------------- #
# Supervised runner: kills, hangs, retries, bit-identity                      #
# --------------------------------------------------------------------------- #


class TestSupervisedRunner:
    def test_clean_parallel_run(self):
        with _env(REPRO_CHAOS=None, **_FAST):
            result = Runner(jobs=2).run("exec_toy", count=6)
        assert [p["attempts"] for p in result.cell_perf] == [1] * 6
        assert result.incidents == []
        assert result.reduced["5"] == {"i": 5, "value": 51}
        # Regression: per-cell perf dicts must never alias each other.
        assert all(
            a is not b
            for i, a in enumerate(result.cell_perf)
            for b in result.cell_perf[i + 1 :]
        )

    def test_killed_worker_recovers_bit_identical(self):
        with _env(REPRO_CHAOS=None, **_FAST):
            clean = Runner(jobs=2).run("exec_toy")
        with _env(REPRO_CHAOS="kill_worker:cell=1", **_FAST):
            chaotic = Runner(jobs=2).run("exec_toy")
        assert chaotic.cell_results == clean.cell_results
        assert chaotic.reduced == clean.reduced
        assert _reduced_sections(chaotic) == _reduced_sections(clean)
        assert chaotic.cell_perf[1]["attempts"] == 2
        (incident,) = chaotic.incidents
        assert incident["kind"] == "worker_death"
        assert incident["cell"] == 1
        assert str(CHAOS_EXIT_CODE) in incident["detail"]

    def test_hung_worker_times_out_and_recovers(self):
        with _env(
            REPRO_CHAOS="hang:cell=0:hold_s=60",
            **{TIMEOUT_ENV: "1.0", BACKOFF_ENV: "0"},
        ):
            start = time.monotonic()
            result = Runner(jobs=2).run("exec_toy")
            elapsed = time.monotonic() - start
        assert elapsed < 30.0  # bounded: one 1 s budget + teardown, not 60 s
        assert result.cell_perf[0]["attempts"] == 2
        (incident,) = result.incidents
        assert incident["kind"] == "timeout"
        assert result.reduced["0"] == {"i": 0, "value": 1}

    def test_exhausted_attempts_raise_with_history(self):
        with _env(
            REPRO_CHAOS="kill_worker:cell=2:count=9",
            **{MAX_ATTEMPTS_ENV: "2", BACKOFF_ENV: "0"},
        ):
            with pytest.raises(ExecutionError, match=r"cell 2 .*2 attempt"):
                Runner(jobs=2).run("exec_toy")

    def test_supervised_map_prefill_skips_execution(self):
        cells = _toy_cells()
        prefilled = {0: ({"i": 0, "value": 999}, {"wall_s": 0.0, "resumed": True})}
        with _env(REPRO_CHAOS=None, **_FAST):
            results, perf, incidents = supervised_map(
                "exec_toy", cells, jobs=2, prefilled=prefilled
            )
        assert results[0] == {"i": 0, "value": 999}  # replayed, not re-run
        assert perf[0]["resumed"] is True
        assert [r["value"] for r in results[1:]] == [11, 21, 31]
        assert incidents == []

    @settings(max_examples=5, deadline=None)
    @given(
        kills=st.dictionaries(
            keys=st.integers(min_value=0, max_value=3),
            values=st.integers(min_value=1, max_value=2),
            max_size=3,
        )
    )
    def test_any_kill_schedule_reduces_identically(self, kills):
        """Chaos over any subset of cells (retries within budget) is invisible
        in the reduced artifact — the acceptance property from the issue."""
        with _env(REPRO_CHAOS=None, **_FAST):
            clean = Runner(jobs=2).run("exec_toy")
        chaos = ";".join(
            f"kill_worker:cell={cell}:count={count}"
            for cell, count in sorted(kills.items())
        )
        with _env(REPRO_CHAOS=chaos or None, **_FAST):
            chaotic = Runner(jobs=2).run("exec_toy")
        assert _reduced_sections(chaotic) == _reduced_sections(clean)
        for cell, count in kills.items():
            assert chaotic.cell_perf[cell]["attempts"] == count + 1


# --------------------------------------------------------------------------- #
# Checkpoint / resume                                                         #
# --------------------------------------------------------------------------- #


class TestCheckpointJournal:
    def _clean_run(self, tmp_path, name="clean"):
        path = str(tmp_path / f"{name}.ckpt.jsonl")
        with _env(REPRO_CHAOS=None, **_FAST):
            result = Runner(jobs=1).run("exec_toy", checkpoint_path=path)
        return result, path

    def test_journal_round_trip(self, tmp_path):
        result, path = self._clean_run(tmp_path)
        done = load_checkpoint(path, "exec_toy", _toy_cells())
        assert sorted(done) == [0, 1, 2, 3]
        for index, (value, perf) in done.items():
            assert value == result.cell_results[index]
            assert perf["resumed"] is True

    def test_resume_after_crash_matches_clean_run(self, tmp_path):
        clean, path = self._clean_run(tmp_path)
        # Simulate a crash after two cells: keep the header + two records
        # and a half-written trailing line (the loader must skip it).
        lines = open(path, encoding="utf-8").readlines()
        crashed = str(tmp_path / "crashed.ckpt.jsonl")
        with open(crashed, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:3])
            fh.write('{"index": 3, "key": "trunc')
        with _env(REPRO_CHAOS=None, **_FAST):
            resumed = Runner(jobs=2).run(
                "exec_toy", resume_from=crashed, checkpoint_path=crashed
            )
        assert resumed.cell_results == clean.cell_results
        assert resumed.reduced == clean.reduced
        assert _reduced_sections(resumed) == _reduced_sections(clean)
        flags = [bool(p.get("resumed")) for p in resumed.cell_perf]
        assert flags == [True, True, False, False]
        # Continue-in-place: the journal now covers the whole grid again.
        assert sorted(load_checkpoint(crashed, "exec_toy", _toy_cells())) == [
            0, 1, 2, 3,
        ]

    def test_resume_refuses_mismatched_grid(self, tmp_path):
        _, path = self._clean_run(tmp_path)
        with pytest.raises(ExecutionError, match="different grid"):
            load_checkpoint(path, "exec_toy", _toy_cells(seed=2))
        with pytest.raises(ExecutionError, match="belongs to experiment"):
            load_checkpoint(path, "figure8a", _toy_cells())

    def test_corrupt_middle_line_is_an_error(self, tmp_path):
        _, path = self._clean_run(tmp_path)
        lines = open(path, encoding="utf-8").readlines()
        lines[2] = "NOT JSON\n"
        open(path, "w", encoding="utf-8").writelines(lines)
        with pytest.raises(ExecutionError, match="corrupt"):
            load_checkpoint(path, "exec_toy", _toy_cells())

    def test_record_key_must_match_grid_cell(self, tmp_path):
        _, path = self._clean_run(tmp_path)
        record = json.loads(open(path, encoding="utf-8").readlines()[1])
        record["key"] = "fabric=Imposter seed=1"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(ExecutionError, match="does not match"):
            load_checkpoint(path, "exec_toy", _toy_cells())

    def test_empty_and_foreign_files_are_rejected(self, tmp_path):
        empty = tmp_path / "empty.ckpt.jsonl"
        empty.write_text("")
        with pytest.raises(ExecutionError, match="empty"):
            load_checkpoint(str(empty), "exec_toy", _toy_cells())
        foreign = tmp_path / "foreign.ckpt.jsonl"
        foreign.write_text('{"hello": "world"}\n')
        with pytest.raises(ExecutionError, match="not a checkpoint"):
            load_checkpoint(str(foreign), "exec_toy", _toy_cells())

    def test_writer_refuses_foreign_journal(self, tmp_path):
        _, path = self._clean_run(tmp_path)
        with pytest.raises(ExecutionError, match="different grid"):
            CheckpointWriter(path, "exec_toy", _toy_cells(seed=2))

    def test_fingerprint_tracks_every_cell_param(self):
        base = grid_fingerprint("exec_toy", _toy_cells())
        assert base == grid_fingerprint("exec_toy", _toy_cells())
        assert base != grid_fingerprint("exec_toy", _toy_cells(seed=2))
        assert base != grid_fingerprint("exec_toy", _toy_cells(count=3))
        assert base != grid_fingerprint("other", _toy_cells())

    def test_new_checkpoint_paths_never_collide(self, tmp_path):
        first = new_checkpoint_path(str(tmp_path), "exec_toy")
        open(first, "w").close()
        second = new_checkpoint_path(str(tmp_path), "exec_toy")
        assert first != second
        assert first.endswith(".ckpt.jsonl") and second.endswith(".ckpt.jsonl")


# --------------------------------------------------------------------------- #
# Atomic writes                                                               #
# --------------------------------------------------------------------------- #


class TestAtomicWrites:
    def test_json_write_round_trips_with_trailing_newline(self, tmp_path):
        path = str(tmp_path / "out.json")
        with _env(REPRO_CHAOS=None):
            assert atomic_write_json(path, {"a": [1, 2]}) == path
        text = open(path, encoding="utf-8").read()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": [1, 2]}
        assert not os.path.exists(path + ".tmp")

    def test_partial_artifact_chaos_never_touches_final_path(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        with _env(REPRO_CHAOS="partial_artifact"):
            reset_chaos_state()
            with pytest.raises(ExecutionError, match="partial_artifact"):
                atomic_write_json(path, {"big": list(range(100))})
            # The interrupted write left only partial bytes in the temp
            # sibling; the final path does not exist at all.
            assert not os.path.exists(path)
            assert os.path.exists(path + ".tmp")
            # The fault budget (count=1) is spent: the retry succeeds and
            # replaces the partial temp file.
            atomic_write_json(path, {"big": list(range(100))})
        assert json.loads(open(path, encoding="utf-8").read())["big"][-1] == 99
        assert not os.path.exists(path + ".tmp")

    def test_write_artifact_is_atomic_under_chaos(self, tmp_path):
        with _env(REPRO_CHAOS=None, **_FAST):
            result = Runner(jobs=1).run("exec_toy")
        with _env(REPRO_CHAOS="partial_artifact"):
            reset_chaos_state()
            with pytest.raises(ExecutionError):
                write_artifact(result, out_dir=str(tmp_path))
            final = [
                name
                for name in os.listdir(tmp_path / "exec_toy")
                if name.endswith(".json")
            ]
            assert final == []  # no truncated artifact at a final path
            path = write_artifact(result, out_dir=str(tmp_path))
        data = json.loads(open(path, encoding="utf-8").read())
        assert data["results"] == result.reduced
