"""Tests for §3.3 fault tolerance (mirroring/failover) and the CLI."""

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
        assert [(g.grant.src, g.grant.dst, g.grant.chunk_bytes) for g in p_grants] == [
            (g.grant.src, g.grant.dst, g.grant.chunk_bytes) for g in b_grants
        ]


class TestCli:
    def test_table1_command(self, capsys):
        from repro.cli import main
        main(["table1"])
        out = capsys.readouterr().out
        assert "EDM" in out and "299.52" in out

    def test_figure6_command(self, capsys):
        from repro.cli import main
        main(["figure6"])
        assert "YCSB-A" in capsys.readouterr().out

    def test_figure7_command(self, capsys):
        from repro.cli import main
        main(["figure7"])
        assert "100:10" in capsys.readouterr().out

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
