"""Tests for §3.3 fault tolerance (mirroring/failover) and the CLI."""

import json
import pathlib

import pytest

from repro.errors import FabricError
from repro.switchfab.failover import (
    DuplicateSuppressor,
    FailoverController,
    MirroredSender,
)


class TestMirroredSender:
    def test_duplicates_on_both_paths(self):
        primary, backup = [], []
        sender = MirroredSender(primary.append, backup.append)
        sender.send("msg")
        assert primary == ["msg"] and backup == ["msg"]
        assert sender.sent == 1


class TestDuplicateSuppressor:
    def test_first_copy_delivered_second_suppressed(self):
        out = []
        rx = DuplicateSuppressor(out.append)
        rx.receive(1, "a")
        rx.receive(1, "a")  # mirror copy
        assert out == ["a"]
        assert rx.suppressed == 1
        assert rx.in_flight == 0  # uid retired after both copies

    def test_distinct_uids_both_delivered(self):
        out = []
        rx = DuplicateSuppressor(out.append)
        rx.receive(1, "a")
        rx.receive(2, "b")
        assert out == ["a", "b"]

    def test_uid_reuse_after_retirement(self):
        # 8-bit message ids recycle; retirement must allow reuse.
        out = []
        rx = DuplicateSuppressor(out.append)
        rx.receive(1, "first")
        rx.receive(1, "first-dup")
        rx.receive(1, "second")
        assert out == ["first", "second"]

    def test_single_path_mode(self):
        out = []
        rx = DuplicateSuppressor(out.append)
        rx.receive_single(5, "only")
        assert out == ["only"]
        assert rx.in_flight == 0


class TestFailoverController:
    def test_primary_active_by_default(self):
        assert FailoverController().active_path == "primary"

    def test_failover_to_backup(self):
        ctl = FailoverController()
        ctl.fail_primary()
        assert ctl.active_path == "backup"
        assert ctl.failovers == 1

    def test_double_failure_raises(self):
        ctl = FailoverController()
        ctl.fail_primary()
        with pytest.raises(FabricError):
            ctl.fail_backup()

    def test_restore_primary(self):
        ctl = FailoverController()
        ctl.fail_primary()
        ctl.restore_primary()
        assert ctl.active_path == "primary"

    def test_repeated_fail_is_idempotent(self):
        ctl = FailoverController()
        ctl.fail_primary()
        ctl.fail_primary()
        assert ctl.failovers == 1


class TestEndToEndMirroring:
    def test_backup_scheduler_sees_identical_demand_stream(self):
        # The crux of §3.3: both switches compute on the same inputs, so
        # the backup's scheduler state matches the primary's.
        from repro.core.scheduler import CentralScheduler, Demand, SchedulerConfig

        config = SchedulerConfig(num_ports=4, link_gbps=100.0, chunk_bytes=256)
        primary, backup = CentralScheduler(config), CentralScheduler(config)

        # Each switch parses its own copy of the mirrored wire message and
        # builds its own demand state.
        def to_primary(d):
            primary.notify(d.clone())

        def to_backup(d):
            backup.notify(d.clone())

        sender = MirroredSender(to_primary, to_backup)
        for i in range(5):
            sender.send(Demand(src=0, dst=1 + (i % 3), message_id=i,
                               total_bytes=64 * (i + 1), notified_at=float(i)))
        assert primary.pending_demands == backup.pending_demands == 5
        # Identical matching decisions on identical state.
        p_grants = primary.schedule(10.0)
        b_grants = backup.schedule(10.0)
        assert [(g.src, g.dst, g.chunk_bytes) for g in p_grants] == [
            (g.src, g.dst, g.chunk_bytes) for g in b_grants
        ]


CLI_STDOUT = pathlib.Path(__file__).parent / "fixtures" / "cli_stdout"

#: Each alias with the smoke-scale arguments it is run with, and the
#: ``run`` command it stands for.
ALIAS_SMOKE = [
    (["table1"], ["run", "table1"], []),
    (["figure5"], ["run", "figure5"], []),
    (["figure6"], ["run", "figure6"], []),
    (["figure7"], ["run", "figure7"], []),
    (["figure8a"], ["run", "figure8a"],
     ["--nodes", "4", "--messages", "50", "--loads", "0.3", "--fabrics", "EDM"]),
    (["figure8b"], ["run", "figure8b"],
     ["--nodes", "4", "--messages", "50", "--apps", "memcached",
      "--fabrics", "EDM"]),
    (["scenario", "run"], ["run", "scenarios"],
     ["pfabric_incast_baseline", "--nodes", "6", "--messages", "80"]),
]


def _only_artifact(directory):
    (path,) = directory.rglob("*.json")
    return json.loads(path.read_text())


class TestCli:
    @pytest.mark.parametrize("name", ["table1", "figure5", "figure6", "figure7"])
    def test_analytic_stdout_is_golden(self, name, tmp_path, capsys):
        # Captured from the dedicated subcommands these aliases replaced.
        from repro.cli import main
        main([name, "--out", str(tmp_path)])
        golden = (CLI_STDOUT / f"{name}.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden
        assert _only_artifact(tmp_path)["experiment"] == name

    @pytest.mark.parametrize(
        "alias,command,flags", ALIAS_SMOKE, ids=[" ".join(a[0]) for a in ALIAS_SMOKE]
    )
    def test_alias_equals_run(self, alias, command, flags, tmp_path, capsys):
        from repro.cli import main
        main([*alias, *flags, "--out", str(tmp_path / "alias")])
        alias_out = capsys.readouterr().out
        main([*command, *flags, "--out", str(tmp_path / "run")])
        assert capsys.readouterr().out == alias_out
        via_alias = _only_artifact(tmp_path / "alias")
        via_run = _only_artifact(tmp_path / "run")
        assert via_alias["results"] == via_run["results"]
        assert via_alias["config"] == via_run["config"]

    def test_table1_command(self, capsys, tmp_path):
        from repro.cli import main
        main(["table1", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "EDM" in out and "299.52" in out

    def test_figure6_command(self, capsys, tmp_path):
        from repro.cli import main
        main(["figure6", "--out", str(tmp_path)])
        assert "YCSB-A" in capsys.readouterr().out

    def test_figure7_command(self, capsys, tmp_path):
        from repro.cli import main
        main(["figure7", "--out", str(tmp_path)])
        assert "100:10" in capsys.readouterr().out

    def test_scenario_names_may_follow_options(self, capsys):
        from repro.cli import main
        main(["run", "scenarios", "--nodes", "6", "--messages", "80",
              "pfabric_incast_baseline", "--no-artifact"])
        assert "Scenario sweep — 1 scenarios" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "figure8a", "stray"],
            ["figure6", "--bogus"],
            ["run", "figure8a", "--topology", "single"],
        ],
    )
    def test_unused_positional_or_flag_is_a_usage_error(self, argv, tmp_path):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_checks_command_passes(self, capsys):
        from repro.cli import main
        main(["checks"])
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_unknown_command_exits(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["nope"])

    @pytest.mark.parametrize("loads", ["abc", ","])
    def test_malformed_loads_is_a_usage_error(self, loads, tmp_path, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["figure8a", "--loads", loads, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "error: --loads must be comma-separated numbers" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure8a", "--loads", "0.5"],
            ["figure8b", "--apps", "memcached"],
            ["run", "figure8a_mix"],
        ],
    )
    def test_negative_seed_is_a_usage_error(self, argv, tmp_path, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main([
                *argv, "--seed", "-1", "--nodes", "4", "--messages", "50",
                "--fabrics", "EDM", "--out", str(tmp_path),
            ])
        assert exc.value.code == 2
        assert "error: seed must be non-negative: -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "figure8a", "--nodes", "0"],
            ["run", "figure8a", "--messages", "0"],
            ["run", "serving", "--ops-per-client", "0"],
            ["run", "ablations", "--messages", "-5"],
            ["figure8a", "--nodes", "0"],
            ["scenario", "run", "--nodes", "0"],
            ["scenario", "run", "--messages", "0"],
            ["run", "figure8a", "--jobs", "0"],
            ["figure6", "--jobs", "0"],
        ],
    )
    def test_zero_count_is_a_usage_error(self, argv, tmp_path, capsys):
        # A count of 0 once meant "unset" and quietly ran the default scale.
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_checkpoint_journal_lives_only_while_it_can_be_resumed(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.execution.checkpoint import CheckpointWriter

        def journals():
            return list(tmp_path.rglob("*.ckpt.jsonl"))

        # A run that fails before recording a cell leaves no journal, with
        # or without an artifact requested.
        for extra in (["--no-artifact"], []):
            with pytest.raises(SystemExit) as exc:
                main(["run", "figure8a", "--nodes", "1", "--out", str(tmp_path), *extra])
            assert exc.value.code == 2
        assert not any(tmp_path.iterdir())  # no journal, no directory
        # A successful run leaves its artifact and nothing else.
        argv = ["run", "figure8a", "--nodes", "4", "--messages", "50",
                "--loads", "0.3,0.6", "--fabrics", "EDM", "--out", str(tmp_path)]
        main(argv)
        assert journals() == [] and len(list(tmp_path.rglob("*.json"))) == 1
        # An interrupted run keeps the cell it recorded for --resume, and
        # the resumed run's artifact retires the journal.
        record = CheckpointWriter.record

        def record_then_interrupt(self, *args):
            record(self, *args)
            raise KeyboardInterrupt

        monkeypatch.setattr(CheckpointWriter, "record", record_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        (journal,) = journals()
        assert len(journal.read_text().splitlines()) == 2  # header + one cell
        monkeypatch.undo()
        main([*argv, "--resume", str(journal)])
        assert journals() == [] and len(list(tmp_path.rglob("*.json"))) == 2
