"""Command-line interface: regenerate any paper artifact.

Usage::

    python -m repro.cli table1
    python -m repro.cli figure5
    python -m repro.cli figure6
    python -m repro.cli figure7
    python -m repro.cli figure8a --nodes 24 --messages 8000 --loads 0.2,0.8 --jobs 4
    python -m repro.cli figure8b --nodes 12 --messages 1200 --apps memcached
    python -m repro.cli run figure8a --jobs 4 --out results
    python -m repro.cli run serving --profiles steady_ab --ops-per-client 200
    python -m repro.cli run figure8a --profile   # .prof + top-25 table
    python -m repro.cli run --list
    python -m repro.cli scenario list
    python -m repro.cli scenario run --jobs 4
    python -m repro.cli scenario run pfc_incast_failover --nodes 8 --messages 400
    python -m repro.cli checks

Simulation subcommands fan their parameter grid out over ``--jobs``
worker processes (results are bit-identical to ``--jobs 1``) and persist
a JSON artifact under ``--out`` (default ``results/``).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Any, Dict, List, Optional

from repro.errors import ConfigError, ReproError
from repro.experiments import (
    Figure8aScale,
    Figure8bScale,
    Runner,
    RunnerResult,
    experiment_names,
    format_grid,
    get_experiment,
    summarize_shape_checks,
    write_artifact,
)
from repro.execution import new_checkpoint_path
from repro.latency.breakdown import format_breakdown, read_breakdown, write_breakdown
from repro.latency.table1 import format_table1


def _cmd_table1(_: argparse.Namespace) -> None:
    print(format_table1())


def _cmd_figure5(_: argparse.Namespace) -> None:
    print(format_breakdown(read_breakdown(), "Figure 5 — 64 B READ"))
    print()
    print(format_breakdown(write_breakdown(), "Figure 5 — 64 B WRITE"))


def _run_and_persist(
    name: str, args: argparse.Namespace, options: Dict[str, Any]
) -> RunnerResult:
    """Run one experiment through the runner; write an artifact unless opted out."""
    profiler = None
    if getattr(args, "profile", False):
        import cProfile

        if args.jobs != 1:
            print(
                "warning: --profile records this process only; "
                "worker-process time is invisible (use --jobs 1)",
                file=sys.stderr,
            )
        profiler = cProfile.Profile()
        profiler.enable()
    # Resuming appends to the same journal (continue-in-place); a fresh
    # run gets a stamped journal next to where the artifact will land.  A
    # run that writes no artifact writes no journal either.
    resume_from: Optional[str] = getattr(args, "resume", None)
    no_artifact = getattr(args, "no_artifact", False)
    write_out = bool(args.out) and not no_artifact
    checkpoint_path = None if no_artifact else resume_from
    if checkpoint_path is None and write_out and not getattr(args, "no_checkpoint", False):
        checkpoint_path = new_checkpoint_path(args.out, name)
    try:
        result = Runner(jobs=args.jobs).run(
            name,
            checkpoint_path=checkpoint_path,
            resume_from=resume_from,
            **options,
        )
    except BaseException:
        # An interrupted run keeps its journal for --resume; a fresh one
        # that recorded no cell has nothing to resume.
        if checkpoint_path is not None:
            if checkpoint_path != resume_from and not _journal_has_cells(
                checkpoint_path
            ):
                _remove_quietly(checkpoint_path)
            else:
                print(f"[checkpoint] {checkpoint_path}", file=sys.stderr)
        raise
    finally:
        if profiler is not None:
            profiler.disable()
    artifact_path: Optional[str] = None
    if write_out:
        # Record exactly what the runner received — not the raw argparse
        # namespace, whose flags an experiment may not consume.
        config = {
            k: dataclasses.asdict(v) if dataclasses.is_dataclass(v) else v
            for k, v in options.items()
        }
        artifact_path = write_artifact(result, out_dir=args.out, config=config)
        print(f"[artifact] {artifact_path}", file=sys.stderr)
        # The artifact landed atomically, so the journal has no more use.
        if checkpoint_path is not None:
            _remove_quietly(checkpoint_path)
    elif checkpoint_path is not None:
        print(f"[checkpoint] {checkpoint_path}", file=sys.stderr)
    if profiler is not None:
        _write_profile(profiler, name, args, artifact_path)
    return result


def _journal_has_cells(path: str) -> bool:
    """Whether a checkpoint journal holds a complete line past its header."""
    try:
        with open(path, "rb") as fh:
            return fh.read().count(b"\n") > 1
    except FileNotFoundError:
        return False


def _remove_quietly(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _write_profile(
    profiler: Any,
    name: str,
    args: argparse.Namespace,
    artifact_path: Optional[str],
) -> None:
    """Persist a cProfile capture next to the JSON artifact.

    Two files: the raw ``.prof`` dump (for snakeviz/pstats digging) and a
    ``_profile.txt`` with the top 25 functions by cumulative time, so the
    hot path is reviewable straight from a CI artifact listing.
    """
    import io
    import pathlib
    import pstats

    if artifact_path is not None:
        base = pathlib.Path(artifact_path).with_suffix("")
    else:
        base = pathlib.Path(args.out or ".") / name
    base.parent.mkdir(parents=True, exist_ok=True)
    prof_path = base.parent / f"{base.name}.prof"
    profiler.dump_stats(str(prof_path))
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(25)
    text_path = base.parent / f"{base.name}_profile.txt"
    text_path.write_text(buffer.getvalue(), encoding="utf-8")
    print(f"[profile] {prof_path}", file=sys.stderr)
    print(f"[profile] {text_path}", file=sys.stderr)


def _cmd_figure6(args: argparse.Namespace) -> None:
    result = _run_and_persist("figure6", args, {})
    print("Figure 6 — KV throughput (Mrps), EDM vs RDMA:")
    for row in result.reduced:
        print(
            f"  YCSB-{row['workload']}: EDM {row['edm_mrps']:6.2f}  "
            f"RDMA {row['rdma_mrps']:6.2f}  speedup {row['speedup']:.2f}x"
        )


def _cmd_figure7(args: argparse.Namespace) -> None:
    result = _run_and_persist("figure7", args, {})
    print("Figure 7 — mean YCSB-A latency (ns) vs local:remote placement:")
    for row in result.reduced:
        print(
            f"  {row['split']:>7}: EDM {row['edm_ns']:7.1f}  "
            f"CXL {row['cxl_ns']:7.1f}  RDMA {row['rdma_ns']:7.1f}"
        )


def _positive_int(text: str) -> int:
    """argparse type for counts: an integer of at least 1 (else exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_loads(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(
            f"--loads must be comma-separated numbers: {text!r}"
        ) from None


def _parse_fabrics(text: str) -> Optional[tuple]:
    return tuple(text.split(",")) if text else None


def _figure8a_options(args: argparse.Namespace) -> Dict[str, Any]:
    scale = Figure8aScale(
        num_nodes=args.nodes,
        message_count=args.messages,
        seed=args.seed,
        fabric_names=_parse_fabrics(args.fabrics),
        topology=args.topology,
    )
    return {"loads": _parse_loads(args.loads), "scale": scale}


def _figure8b_options(args: argparse.Namespace) -> Dict[str, Any]:
    scale = Figure8bScale(
        num_nodes=args.nodes,
        message_count=args.messages,
        seed=args.seed,
        fabric_names=_parse_fabrics(args.fabrics),
        topology=args.topology,
    )
    return {"apps": args.apps.split(",") if args.apps else None, "scale": scale}


def _cmd_figure8a(args: argparse.Namespace) -> None:
    result = _run_and_persist("figure8a", args, _figure8a_options(args))
    print(format_grid(result.reduced, "Figure 8a — normalized 64 B latency vs load"))


def _cmd_figure8b(args: argparse.Namespace) -> None:
    result = _run_and_persist("figure8b", args, _figure8b_options(args))
    print(format_grid(result.reduced, "Figure 8b — normalized MCT per app trace"))


#: `run` flag -> (attribute, unset value); used to spot flags a chosen
#: experiment does not consume.
_RUN_FLAG_DEFAULTS = {
    "nodes": None,
    "messages": None,
    "seed": None,
    "loads": "0.2,0.5,0.8",
    "apps": "",
    "fabrics": "",
    "families": "",
    "profiles": "",
    "ops_per_client": None,
    "topology": "single",
}


def _warn_ignored_flags(
    name: str, args: argparse.Namespace, flags: tuple
) -> None:
    ignored = [
        f"--{flag}"
        for flag in flags
        if getattr(args, flag) != _RUN_FLAG_DEFAULTS[flag]
    ]
    if ignored:
        print(
            f"warning: {', '.join(ignored)} not used by {name!r}; ignoring",
            file=sys.stderr,
        )


def _grid_summary(name: str) -> str:
    """Cell count and grid shape of an experiment's *default* grid."""
    try:
        cells = list(get_experiment(name).build_cells())
    except ReproError:  # pragma: no cover - defensive
        return "?"
    dims = []
    loads = {c.load for c in cells if c.load is not None}
    if len(loads) > 1:
        dims.append(f"{len(loads)} loads")
    fabrics = {c.fabric for c in cells if c.fabric is not None}
    if len(fabrics) > 1:
        dims.append(f"{len(fabrics)} fabrics")
    extras: Dict[str, set] = {}
    for cell in cells:
        for key, value in cell.extra:
            extras.setdefault(key, set()).add(value)
    # Of the experiment-specific parameters, name only the headline axes
    # (app/workload/family/mix); the rest collapse into the cell count.
    for key, label in (
        ("app", "apps"), ("workload", "workloads"),
        ("family", "families"), ("write_parts", "mixes"),
        ("local", "splits"), ("profile", "profiles"),
        ("scenario", "scenarios"),
    ):
        values = extras.get(key, ())
        if len(values) > 1:
            dims.append(f"{len(values)} {label}")
    scale = dict(cells[0].scale)
    if "num_nodes" in scale:
        dims.append(f"{scale['num_nodes']} nodes")
    shape = ", ".join(dims)
    return f"{len(cells):>3} cells" + (f" ({shape})" if shape else "")


def _cmd_run(args: argparse.Namespace) -> None:
    if args.list or args.experiment is None:
        for name in experiment_names():
            print(
                f"  {name:<14} {_grid_summary(name):<42} "
                f"{get_experiment(name).description}"
            )
        if args.experiment is None and not args.list:
            print("\n(pick one: repro.cli run <experiment>)", file=sys.stderr)
            sys.exit(2)
        return
    name = args.experiment
    options: Dict[str, Any]
    if name in ("figure8a", "figure8a_mix"):
        args.nodes = 24 if args.nodes is None else args.nodes
        args.messages = 8000 if args.messages is None else args.messages
        args.seed = 1 if args.seed is None else args.seed
        _warn_ignored_flags(name, args, ("families", "profiles", "ops_per_client"))
        options = _figure8a_options(args)
        if name == "figure8a_mix":
            options = {"scale": options["scale"]}
    elif name == "figure8b":
        args.nodes = 12 if args.nodes is None else args.nodes
        args.messages = 1200 if args.messages is None else args.messages
        args.seed = 1 if args.seed is None else args.seed
        _warn_ignored_flags(
            name, args, ("loads", "families", "profiles", "ops_per_client")
        )
        options = _figure8b_options(args)
    elif name == "scenarios":
        _warn_ignored_flags(
            name, args,
            ("loads", "apps", "fabrics", "families", "profiles", "ops_per_client"),
        )
        options = _scenario_options(args)
    elif name == "serving":
        _warn_ignored_flags(
            name, args,
            ("loads", "apps", "fabrics", "families", "messages", "topology"),
        )
        options = _serving_options(args)
    elif name == "ablations":
        _warn_ignored_flags(
            name, args,
            ("loads", "apps", "fabrics", "profiles", "ops_per_client",
             "topology"),
        )
        options = {
            "num_nodes": 16 if args.nodes is None else args.nodes,
            # Canonical ablation seed is 3 (what the benchmarks use).
            "seed": 3 if args.seed is None else args.seed,
            "message_count": args.messages,
        }
        if args.families:
            options["families"] = tuple(args.families.split(","))
    else:
        # Analytic experiments take no scale options.
        _warn_ignored_flags(
            name, args,
            (
                "nodes", "messages", "seed", "loads", "apps", "fabrics",
                "families", "profiles", "ops_per_client", "topology",
            ),
        )
        options = {}
    result = _run_and_persist(name, args, options)
    reduced = result.reduced
    if name == "scenarios":
        from repro.scenarios import format_scenario_results

        print(format_scenario_results(reduced))
        return
    if name == "serving":
        from repro.experiments.serving import format_serving_results

        print(format_serving_results(reduced))
        return
    if isinstance(reduced, dict) and all(
        isinstance(v, dict) for v in reduced.values()
    ):
        print(format_grid(reduced, f"{name} ({result.jobs} jobs)"))
    else:
        print(f"{name} ({result.jobs} jobs):")
        print(reduced)


def _serving_options(args: argparse.Namespace) -> Dict[str, Any]:
    """Scale overrides for the serving experiment (None = spec value)."""
    options: Dict[str, Any] = {}
    if args.profiles:
        options["profiles"] = args.profiles.split(",")
    if args.seed is not None:
        options["seed"] = args.seed
    if args.ops_per_client is not None:
        options["ops_per_client"] = args.ops_per_client
    if args.nodes is not None:
        options["num_nodes"] = args.nodes
    return options


def _scenario_options(args: argparse.Namespace) -> Dict[str, Any]:
    """Scale overrides for the scenarios experiment (None = spec value)."""
    options: Dict[str, Any] = {}
    if getattr(args, "names", None):
        options["names"] = args.names
    if args.seed is not None:
        options["seed"] = args.seed
    if args.nodes is not None:
        options["num_nodes"] = args.nodes
    if args.messages is not None:
        options["message_count"] = args.messages
    if getattr(args, "topology", "single") != "single":
        options["topology"] = args.topology
    return options


def _cmd_scenario(args: argparse.Namespace) -> None:
    from repro.scenarios import format_scenario_list, format_scenario_results

    if args.action == "list":
        print(format_scenario_list())
        return
    result = _run_and_persist("scenarios", args, _scenario_options(args))
    print(format_scenario_results(result.reduced))


def _cmd_checks(_: argparse.Namespace) -> None:
    checks = summarize_shape_checks()
    width = max(len(k) for k in checks)
    for name, ok in checks.items():
        print(f"  {name:<{width}}  {'PASS' if ok else 'FAIL'}")
    if not all(checks.values()):
        sys.exit(1)


def _add_runner_args(
    parser: argparse.ArgumentParser, *, out_default: Optional[str] = "results"
) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the cell grid (default 1 = serial)",
    )
    parser.add_argument(
        "--out", type=str, default=out_default,
        help="artifact directory"
        + (f" (default {out_default}/)" if out_default else " (no artifact unless set)"),
    )
    parser.add_argument(
        "--no-artifact", action="store_true",
        help="skip writing the JSON artifact",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="cProfile the run; writes .prof + top-25 cumulative table "
        "next to the artifact (parent process only — use --jobs 1)",
    )
    parser.add_argument(
        "--resume", type=str, default=None, metavar="CKPT",
        help="replay completed cells from a checkpoint journal "
        "(*.ckpt.jsonl, printed as [checkpoint] by an interrupted run) "
        "and execute only the remainder; the journal keeps being appended "
        "until the artifact is written",
    )
    parser.add_argument(
        "--no-checkpoint", action="store_true",
        help="skip the crash-safe checkpoint journal (docs/RESILIENCE.md)",
    )


def _add_scale_args(
    parser: argparse.ArgumentParser,
    *,
    nodes: Optional[int],
    messages: Optional[int],
    seed: Optional[int] = 1,
) -> None:
    parser.add_argument("--nodes", type=_positive_int, default=nodes)
    parser.add_argument("--messages", type=_positive_int, default=messages)
    parser.add_argument("--seed", type=int, default=seed)
    parser.add_argument(
        "--fabrics", type=str, default="",
        help="comma-separated fabric names (default: all seven)",
    )
    parser.add_argument(
        "--topology", type=str, default="single",
        help="substrate topology: 'single' or "
        "'leaf-spine:leaves=L,spines=S[,oversub=R]' (docs/TOPOLOGY.md); "
        "only fabrics tagged 'multitier' accept a multi-tier value",
    )


#: Shared epilog for the simulation subcommands.  The README's "Scaling
#: up" section documents the same contract — keep the two in sync (CI
#: greps for the marker phrases).
_SCALING_EPILOG = (
    "scaling up: --jobs N runs independent grid cells in worker processes "
    "(embarrassingly parallel); each simulation runs serially on one "
    "core; --topology leaf-spine:leaves=L,spines=S swaps the single "
    "switch for a routed Clos substrate (docs/TOPOLOGY.md). "
    "--jobs N is bit-identical to its serial equivalent — see docs/ARCHITECTURE.md and docs/DETERMINISM.md. "
    "Interrupted sweeps resume from their checkpoint journal with "
    "--resume <path>.ckpt.jsonl (docs/RESILIENCE.md); replayed cells "
    "carry the same seed's results, so a resumed run's artifact equals "
    "an uninterrupted run's."
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with one subcommand per artifact."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate EDM (ASPLOS 2025) evaluation artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="Table 1: unloaded fabric latency").set_defaults(fn=_cmd_table1)
    sub.add_parser("figure5", help="Figure 5: EDM cycle breakdown").set_defaults(fn=_cmd_figure5)

    f6 = sub.add_parser("figure6", help="Figure 6: KV throughput")
    _add_runner_args(f6, out_default=None)
    f6.set_defaults(fn=_cmd_figure6)

    f7 = sub.add_parser("figure7", help="Figure 7: latency vs placement")
    _add_runner_args(f7, out_default=None)
    f7.set_defaults(fn=_cmd_figure7)

    f8a = sub.add_parser(
        "figure8a", help="Figure 8a: latency vs load", epilog=_SCALING_EPILOG
    )
    _add_scale_args(f8a, nodes=24, messages=8000)
    f8a.add_argument("--loads", type=str, default="0.2,0.5,0.8")
    _add_runner_args(f8a)
    f8a.set_defaults(fn=_cmd_figure8a)

    f8b = sub.add_parser(
        "figure8b", help="Figure 8b: MCT on app traces", epilog=_SCALING_EPILOG
    )
    _add_scale_args(f8b, nodes=12, messages=1200)
    f8b.add_argument("--apps", type=str, default="")
    _add_runner_args(f8b)
    f8b.set_defaults(fn=_cmd_figure8b)

    run = sub.add_parser(
        "run", help="run any registered experiment through the parallel runner",
        epilog=_SCALING_EPILOG,
    )
    run.add_argument("experiment", nargs="?", default=None)
    run.add_argument("--list", action="store_true", help="list experiments")
    # Unset = the CLI default scale for that experiment (the same
    # defaults as the dedicated figure8a/figure8b subcommands — reduced
    # from the papers' 144-node configuration) and its canonical seed.
    _add_scale_args(run, nodes=None, messages=None, seed=None)
    run.add_argument("--loads", type=str, default="0.2,0.5,0.8")
    run.add_argument("--apps", type=str, default="")
    run.add_argument(
        "--families", type=str, default="",
        help="ablations: comma-separated families",
    )
    run.add_argument(
        "--profiles", type=str, default="",
        help="serving: comma-separated profile names (default: the catalog)",
    )
    run.add_argument(
        "--ops-per-client", type=_positive_int, default=None,
        help="serving: override every profile's per-client op budget",
    )
    _add_runner_args(run)
    run.set_defaults(fn=_cmd_run)

    scenario = sub.add_parser(
        "scenario", help="declarative fabric × workload × fault scenarios"
    )
    scenario_sub = scenario.add_subparsers(dest="action", required=True)
    scenario_list = scenario_sub.add_parser("list", help="list the catalog")
    scenario_list.set_defaults(fn=_cmd_scenario)
    scenario_run = scenario_sub.add_parser(
        "run", help="run scenarios through the parallel runner",
        epilog=_SCALING_EPILOG,
    )
    scenario_run.add_argument(
        "names", nargs="*", default=[],
        help="scenario names (default: the whole catalog)",
    )
    scenario_run.add_argument(
        "--nodes", type=_positive_int, default=None,
        help="override every scenario's cluster size (default: spec value)",
    )
    scenario_run.add_argument(
        "--messages", type=_positive_int, default=None,
        help="override every scenario's message count (default: spec value)",
    )
    scenario_run.add_argument(
        "--seed", type=int, default=None,
        help="override every scenario's seed (default: spec value)",
    )
    scenario_run.add_argument(
        "--topology", type=str, default="single",
        help="override every scenario's topology: 'single' or "
        "'leaf-spine:leaves=L,spines=S[,oversub=R]' (docs/TOPOLOGY.md)",
    )
    _add_runner_args(scenario_run)
    scenario_run.set_defaults(fn=_cmd_scenario)

    sub.add_parser("checks", help="Headline shape checks").set_defaults(fn=_cmd_checks)
    return parser


def main(argv: Optional[List[str]] = None) -> None:
    """Entry point: dispatch to the selected artifact generator."""
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except ReproError as exc:
        # User-input problems (unknown experiment/fabric, bad --jobs)
        # surface as clean usage errors, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
