"""Execution-layer tests: the --jobs process pool, checkpoints, atomics.

* a parallel run reduces exactly as a serial one; an exception inside a
  cell propagates unchanged at any ``--jobs``; a worker that dies
  raises ``ExecutionError`` naming the experiment and leaves no child
  process behind;
* a run resumed from a crash-truncated checkpoint journal reduces to the
  same artifact as a clean run;
* a write that fails midway never touches the final path.
"""

import json
import multiprocessing
import os

import pytest

from repro.errors import ConfigError, ExecutionError, ReproError
from repro.execution import (
    CheckpointWriter,
    atomic_write_json,
    grid_fingerprint,
    load_checkpoint,
    new_checkpoint_path,
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
# Trivial registered experiments for runner tests.  Module-level so
# fork-started workers resolve them from their inherited registry.
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


def _bad_run(cell):
    if cell.param("i") == 2:
        raise ConfigError("cell 2 is misconfigured")
    return _toy_run(cell)


def _dying_run(cell):
    # Only ever in a pool worker: at --jobs 1 this would end the test run.
    if cell.param("i") == 1 and multiprocessing.parent_process() is not None:
        os._exit(13)
    return _toy_run(cell)


for _name, _run in (("exec_toy_bad", _bad_run), ("exec_toy_dies", _dying_run)):
    register(
        ExperimentSpec(
            name=_name,
            description="toy grid whose cell 1 or 2 fails",
            build_cells=_toy_cells,
            run_cell=_run,
            reduce=_toy_reduce,
        )
    )


def _reduced_sections(result):
    """The determinism-bearing artifact sections (timings excluded)."""
    payload = artifact_payload(result, created_at="T")
    for volatile in ("elapsed_s", "jobs", "perf", "git"):
        payload.pop(volatile, None)
    for record in payload["cells"]:
        record.pop("perf", None)
    return json.dumps(payload, sort_keys=True)


# --------------------------------------------------------------------------- #
# Parallel runner (--jobs) on the process pool                                #
# --------------------------------------------------------------------------- #


class TestSupervisedRunner:
    def test_clean_parallel_run(self):
        result = Runner(jobs=2).run("exec_toy", count=6)
        serial = Runner(jobs=1).run("exec_toy", count=6)
        assert _reduced_sections(result) == _reduced_sections(serial)
        assert result.reduced["5"] == {"i": 5, "value": 51}
        # Regression: per-cell perf dicts must never alias each other.
        assert all(
            a is not b
            for i, a in enumerate(result.cell_perf)
            for b in result.cell_perf[i + 1 :]
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cell_exception_propagates_unchanged(self, jobs):
        with pytest.raises(ConfigError, match="cell 2 is misconfigured"):
            Runner(jobs=jobs).run("exec_toy_bad")

    def test_dead_worker_raises_execution_error(self):
        with pytest.raises(ExecutionError, match="'exec_toy_dies'") as exc:
            Runner(jobs=2).run("exec_toy_dies")
        assert isinstance(exc.value, ReproError)
        assert multiprocessing.active_children() == []

    def test_pool_prefill_skips_execution(self):
        cells = _toy_cells()
        prefilled = {0: ({"i": 0, "value": 999}, {"wall_s": 0.0, "resumed": True})}
        results, perf = Runner(jobs=2)._map(TOY, cells, prefilled=prefilled)
        assert results[0] == {"i": 0, "value": 999}  # replayed, not re-run
        assert perf[0]["resumed"] is True
        assert [r["value"] for r in results[1:]] == [11, 21, 31]


# --------------------------------------------------------------------------- #
# Checkpoint / resume                                                         #
# --------------------------------------------------------------------------- #


class TestCheckpointJournal:
    def _clean_run(self, tmp_path, name="clean"):
        path = str(tmp_path / f"{name}.ckpt.jsonl")
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


def _failing_fsync(fd):
    raise OSError("disk vanished mid-write")


class TestAtomicWrites:
    def test_json_write_round_trips_with_trailing_newline(self, tmp_path):
        path = str(tmp_path / "out.json")
        assert atomic_write_json(path, {"a": [1, 2]}) == path
        text = open(path, encoding="utf-8").read()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": [1, 2]}
        assert not os.path.exists(path + ".tmp")

    def test_interrupted_write_never_touches_final_path(self, tmp_path, monkeypatch):
        path = str(tmp_path / "artifact.json")
        atomic_write_json(path, {"old": True})
        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", _failing_fsync)
            with pytest.raises(OSError, match="mid-write"):
                atomic_write_json(path, {"big": list(range(100))})
        # The failed write stopped in the temp sibling; the final path
        # still holds the old file, whole.
        assert json.loads(open(path, encoding="utf-8").read()) == {"old": True}
        # A retry succeeds and replaces the stale temp file.
        atomic_write_json(path, {"big": list(range(100))})
        assert json.loads(open(path, encoding="utf-8").read())["big"][-1] == 99
        assert not os.path.exists(path + ".tmp")

    def test_write_artifact_is_atomic_under_a_failed_write(self, tmp_path, monkeypatch):
        result = Runner(jobs=1).run("exec_toy")
        first = write_artifact(result, out_dir=str(tmp_path))
        before = open(first, encoding="utf-8").read()
        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", _failing_fsync)
            with pytest.raises(OSError):
                write_artifact(result, out_dir=str(tmp_path))
        final = [
            name for name in os.listdir(tmp_path / "exec_toy") if name.endswith(".json")
        ]
        assert final == [os.path.basename(first)]  # no truncated second artifact
        assert open(first, encoding="utf-8").read() == before
        path = write_artifact(result, out_dir=str(tmp_path))
        data = json.loads(open(path, encoding="utf-8").read())
        assert data["results"] == result.reduced
