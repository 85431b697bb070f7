"""Command-line interface: regenerate any paper artifact.

Usage::

    python -m repro.cli run --list
    python -m repro.cli run table1
    python -m repro.cli run figure8a --nodes 24 --messages 8000 --loads 0.2,0.8 --jobs 4
    python -m repro.cli run figure8b --nodes 12 --messages 1200 --apps memcached
    python -m repro.cli run serving --profiles steady_ab --ops-per-client 200
    python -m repro.cli run scenarios pfc_incast_failover --nodes 8 --messages 400
    python -m repro.cli run figure8a --profile   # .prof + top-25 table
    python -m repro.cli scenario list
    python -m repro.cli checks

``table1``, ``figure5``, ``figure6``, ``figure7``, ``figure8a`` and
``figure8b`` are aliases of ``run <name>`` (``python -m repro.cli figure6``
is ``run figure6``), and ``scenario run [names...]`` is
``run scenarios [names...]``.  Every run fans its parameter grid out over
``--jobs`` worker processes (results are bit-identical to ``--jobs 1``),
prints the experiment's own rendering of the result and persists a JSON
artifact under ``--out`` (default ``results/``).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigError, ReproError
from repro.experiments import (
    Figure8aScale,
    Figure8bScale,
    Runner,
    RunnerResult,
    experiment_names,
    get_experiment,
    summarize_shape_checks,
    write_artifact,
)
from repro.execution import new_checkpoint_path
from repro.scenarios import format_scenario_list

#: Per-figure commands, each an alias of ``run <name>``.
_ALIASES = ("table1", "figure5", "figure6", "figure7", "figure8a", "figure8b")


def _expand_alias(argv: List[str]) -> List[str]:
    """Rewrite an alias to the ``run`` command it stands for."""
    if argv[:1] and argv[0] in _ALIASES:
        return ["run", *argv]
    if argv[:2] == ["scenario", "run"]:
        return ["run", "scenarios", *argv[2:]]
    return argv


def _run_and_persist(
    name: str, args: argparse.Namespace, options: Dict[str, Any]
) -> RunnerResult:
    """Run one experiment through the runner; write an artifact unless opted out."""
    profiler = None
    if args.profile:
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
    resume_from: Optional[str] = args.resume
    write_out = bool(args.out) and not args.no_artifact
    checkpoint_path = None if args.no_artifact else resume_from
    if checkpoint_path is None and write_out and not args.no_checkpoint:
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
        # is created with its first cell, so one that recorded no cell
        # left nothing to resume.
        if checkpoint_path is not None and os.path.exists(checkpoint_path):
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


def _figure_scale(scale_class: type, args: argparse.Namespace) -> Any:
    return scale_class(
        num_nodes=args.nodes,
        message_count=args.messages,
        seed=args.seed,
        fabric_names=tuple(args.fabrics.split(",")) if args.fabrics else None,
    )


def _figure8a_options(args: argparse.Namespace) -> Dict[str, Any]:
    return {
        "loads": _parse_loads(args.loads),
        "scale": _figure_scale(Figure8aScale, args),
    }


def _figure8b_options(args: argparse.Namespace) -> Dict[str, Any]:
    return {
        "apps": args.apps.split(",") if args.apps else None,
        "scale": _figure_scale(Figure8bScale, args),
    }


def _ablation_options(args: argparse.Namespace) -> Dict[str, Any]:
    options: Dict[str, Any] = {
        "num_nodes": args.nodes,
        "seed": args.seed,
        "message_count": args.messages,
    }
    if args.families:
        options["families"] = tuple(args.families.split(","))
    return options


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
    if args.names:
        options["names"] = args.names
    if args.seed is not None:
        options["seed"] = args.seed
    if args.nodes is not None:
        options["num_nodes"] = args.nodes
    if args.messages is not None:
        options["message_count"] = args.messages
    return options


@dataclasses.dataclass(frozen=True)
class _Usage:
    """How ``run`` drives one experiment.

    ``flags`` are the ``run`` arguments it reads (any other that is set
    draws a warning), ``defaults`` fill those left unset, and
    ``options`` turns them into the runner's grid options.
    """

    flags: Tuple[str, ...]
    defaults: Mapping[str, Any]
    options: Callable[[argparse.Namespace], Dict[str, Any]]


_SIM_FLAGS = ("nodes", "messages", "seed", "fabrics")

#: The CLI default scale of the figure-8 sweeps, reduced from the paper's
#: 144-node configuration; serving and scenarios default to their specs'.
_USAGE = {
    "figure8a": _Usage(
        _SIM_FLAGS + ("loads",),
        {"nodes": 24, "messages": 8000, "seed": 1, "loads": "0.2,0.5,0.8"},
        _figure8a_options,
    ),
    "figure8a_mix": _Usage(
        _SIM_FLAGS,
        {"nodes": 24, "messages": 8000, "seed": 1},
        lambda args: {"scale": _figure_scale(Figure8aScale, args)},
    ),
    "figure8b": _Usage(
        _SIM_FLAGS + ("apps",),
        {"nodes": 12, "messages": 1200, "seed": 1},
        _figure8b_options,
    ),
    # The canonical ablation seed is 3 (what the benchmarks use).
    "ablations": _Usage(
        ("families", "nodes", "messages", "seed"),
        {"nodes": 16, "seed": 3},
        _ablation_options,
    ),
    "serving": _Usage(
        ("profiles", "ops_per_client", "nodes", "seed"), {}, _serving_options
    ),
    "scenarios": _Usage(
        ("names", "nodes", "messages", "seed"), {}, _scenario_options
    ),
}

#: Analytic experiments read no flag.
_NO_FLAGS = _Usage((), {}, lambda args: {})

#: Every experiment flag of ``run``, each None when unset (names apart).
_ALL_FLAGS = tuple(
    dict.fromkeys(f for u in _USAGE.values() for f in u.flags if f != "names")
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
    spec = get_experiment(name)
    usage = _USAGE.get(name, _NO_FLAGS)
    if args.names and "names" not in usage.flags:
        raise ConfigError(f"{name!r} takes no names: {' '.join(args.names)}")
    ignored = [
        "--" + flag.replace("_", "-")
        for flag in _ALL_FLAGS
        if flag not in usage.flags and getattr(args, flag) is not None
    ]
    if ignored:
        print(
            f"warning: {', '.join(ignored)} not used by {name!r}; ignoring",
            file=sys.stderr,
        )
    for flag, value in usage.defaults.items():
        if getattr(args, flag) is None:
            setattr(args, flag, value)
    result = _run_and_persist(name, args, usage.options(args))
    print(spec.render(result.reduced))


def _cmd_scenario_list(_: argparse.Namespace) -> None:
    print(format_scenario_list())


def _cmd_checks(_: argparse.Namespace) -> None:
    checks = summarize_shape_checks()
    width = max(len(k) for k in checks)
    for name, ok in checks.items():
        print(f"  {name:<{width}}  {'PASS' if ok else 'FAIL'}")
    if not all(checks.values()):
        sys.exit(1)


#: Epilog of ``run``.  The README's "Scaling up" section documents the
#: same contract — keep the two in sync (CI greps for the marker phrases).
_SCALING_EPILOG = (
    "scaling up: --jobs N runs independent grid cells in worker processes "
    "(embarrassingly parallel); each simulation runs serially on one core. "
    "--jobs N is bit-identical to its serial equivalent — see docs/ARCHITECTURE.md and docs/DETERMINISM.md. "
    "Interrupted sweeps resume from their checkpoint journal with "
    "--resume <path>.ckpt.jsonl (docs/RESILIENCE.md); replayed cells "
    "carry the same seed's results, so a resumed run's artifact equals "
    "an uninterrupted run's."
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser: ``run``, ``scenario list``, ``checks``."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate EDM (ASPLOS 2025) evaluation artifacts.",
        epilog=f"aliases: {', '.join(_ALIASES)} = run <name>; "
        "scenario run [names] = run scenarios [names]",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run any registered experiment through the parallel runner",
        epilog=_SCALING_EPILOG,
    )
    run.add_argument(
        "experiment", nargs="?", default=None,
        help="a registered experiment (see --list)",
    )
    run.add_argument(
        "names", nargs="*", default=[],
        help="scenarios: scenario names (default: the whole catalog)",
    )
    run.add_argument("--list", action="store_true", help="list experiments")
    # Unset = the experiment's default (see _USAGE).
    scale = run.add_argument_group("scale (default: the experiment's own)")
    scale.add_argument("--nodes", type=_positive_int)
    scale.add_argument("--messages", type=_positive_int)
    scale.add_argument("--seed", type=int)
    scale.add_argument(
        "--fabrics", help="comma-separated fabric names (default: all seven)",
    )
    scale.add_argument(
        "--loads", help="figure8a: comma-separated loads (default 0.2,0.5,0.8)",
    )
    scale.add_argument("--apps", help="figure8b: comma-separated app traces")
    scale.add_argument("--families", help="ablations: comma-separated families")
    scale.add_argument(
        "--profiles",
        help="serving: comma-separated profile names (default: the catalog)",
    )
    scale.add_argument(
        "--ops-per-client", type=_positive_int,
        help="serving: override every profile's per-client op budget",
    )
    runner = run.add_argument_group("runner")
    runner.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes for the cell grid (default 1 = serial)",
    )
    runner.add_argument(
        "--out", default="results", help="artifact directory (default results/)",
    )
    runner.add_argument(
        "--no-artifact", action="store_true",
        help="skip writing the JSON artifact",
    )
    runner.add_argument(
        "--profile", action="store_true",
        help="cProfile the run; writes .prof + top-25 cumulative table "
        "next to the artifact (parent process only — use --jobs 1)",
    )
    runner.add_argument(
        "--resume", default=None, metavar="CKPT",
        help="replay completed cells from a checkpoint journal "
        "(*.ckpt.jsonl, printed as [checkpoint] by an interrupted run) "
        "and execute only the remainder; the journal keeps being appended "
        "until the artifact is written",
    )
    runner.add_argument(
        "--no-checkpoint", action="store_true",
        help="skip the crash-safe checkpoint journal (docs/RESILIENCE.md)",
    )
    run.set_defaults(fn=_cmd_run)

    scenario = sub.add_parser(
        "scenario",
        help="declarative fabric × workload × fault scenarios "
        "(scenario run = run scenarios)",
    )
    scenario_sub = scenario.add_subparsers(dest="action", required=True)
    scenario_sub.add_parser("list", help="list the catalog").set_defaults(
        fn=_cmd_scenario_list
    )

    sub.add_parser("checks", help="Headline shape checks").set_defaults(fn=_cmd_checks)
    return parser


def main(argv: Optional[List[str]] = None) -> None:
    """Entry point: dispatch to the selected artifact generator."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args, extras = parser.parse_known_args(_expand_alias(argv))
    # argparse leaves names that follow an option unparsed
    # (``run scenarios --nodes 8 a b``); they are still run's names.
    if extras and (
        args.command != "run" or any(x.startswith("-") for x in extras)
    ):
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    if extras:
        args.names += extras
    try:
        args.fn(args)
    except ReproError as exc:
        # User-input problems (unknown experiment/fabric, bad --loads)
        # surface as clean usage errors, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
