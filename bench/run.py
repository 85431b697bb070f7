"""Benchmark: the cost of reproducing four EDM paper artifacts.

Each workload runs ``repro.cli run <experiment> ... --jobs 1`` in fresh
child processes, one after another, through the same entry point a user
calls.  An untraced run repeats the pass (at least three times, then
while another fits in ``--seconds``) and reports the fastest pass's
host time, the largest RSS and the median set-up time; a traced run
(``--trace 1``) makes one plain pass with layer counters and one
cProfile pass, and reports per-layer metrics.  Every pass's artifact is
checked: incomplete messages or KV ops, non-finite results, a
``results_digest`` that differs between passes, and a crashed child all
count as failed ops.

Usage::

    python3 bench/run.py                               # all workloads, seed 1
    python3 bench/run.py --workload fig8a_edm --seed 2 --seconds 30
    python3 bench/run.py --trace                       # per-layer profile
    python3 bench/run.py --repeat 10 --save a.json     # a set for compare.py

The last line of standard output is the last run's result:
``{"correct", "attempted", "failed", "metrics"}``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout; removed after every run.
BUILD = ROOT / ".bench_build"

from layers import OTHER, layer_names  # noqa: E402  (bench/ is sys.path[0])

#: An untraced run makes at least this many passes, even when one pass
#: fills ``--seconds``.
MIN_PASSES = 3
MAX_PASSES = 50
CHILD_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    """One fixed batch: the ``repro.cli run`` arguments minus seed and I/O."""

    name: str
    argv: Tuple[str, ...]


#: Why each workload was chosen is recorded in BENCHMARK.json and
#: bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig8a_edm", (
            "figure8a", "--fabrics", "EDM", "--nodes", "144", "--messages", "6000",
            "--loads", "0.2,0.5,0.9")),
        Workload("fig8b_edm_memcached", (
            "figure8b", "--fabrics", "EDM", "--nodes", "16", "--apps", "memcached",
            "--messages", "8000")),
        Workload("fig8a_baselines", (
            "figure8a", "--fabrics", "IRD,pFabric,PFC,DCTCP,CXL,Fastpass",
            "--nodes", "64", "--messages", "4000", "--loads", "0.5,0.9")),
        Workload("serving_ycsb", ("serving", "--ops-per-client", "300")),
    )
}

#: End-to-end metrics (reported with tracing off) and their units.
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

#: Per-layer metrics beyond each layer's self_s / share / calls_in.
LAYER_COUNTERS = {
    "other.self_s": "s",
    "sim.events": "count",
    "sim.events_per_op": "events/op",
    "sim.events_per_s": "events/s",
    "core.scheduler.rounds": "count",
    "core.scheduler.grants_per_round": "grants/round",
    "core.scheduler.empty_rounds": "count",
    "core.scheduler.pim_iters_per_round": "iters/round",
    "fabrics.probe_s": "s",
    "workloads.gen_s": "s",
    "execution.checkpoint_s": "s",
    "experiments.artifact_s": "s",
    "trace.overhead_x": "x",
}

LAYER_FIELDS = {"self_s": "s", "share": "fraction", "calls_in": "count"}


def per_layer_units(package_dir: Path = SRC / "repro") -> Dict[str, str]:
    """Every per-layer metric name -> unit, for the package tree given."""
    units = {
        f"{layer}.{name}": unit
        for layer in layer_names(str(package_dir))
        for name, unit in LAYER_FIELDS.items()
    }
    units.update(LAYER_COUNTERS)
    return units


class BenchError(Exception):
    """The benchmark cannot produce a result (e.g. no program to run)."""


def cli_argv(workload: Workload, seed: int, out: Path) -> List[str]:
    return ["run", *workload.argv, "--seed", str(seed), "--jobs", "1",
            "--out", str(out)]


def run_child(
    mode: str, workload: Workload, seed: int, tmp: Path, index: int
) -> Optional[Dict[str, Any]]:
    """One pass in a fresh interpreter; None when the child failed."""
    out = tmp / f"pass{index}"
    spec = {
        "src": str(SRC),
        "argv": cli_argv(workload, seed, out),
        "out": str(out),
        "result": str(tmp / f"pass{index}.json"),
        "mode": mode,
    }
    # Children keep temporary files inside the checkout, and a fixed hash
    # seed removes set/dict layout as a source of run-to-run noise.
    env = dict(os.environ, TMPDIR=str(tmp), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"bench: {workload.name} pass {index} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        print(f"bench: {workload.name} pass {index} exited {proc.returncode}\n{tail}",
              file=sys.stderr)
        return None
    with open(spec["result"], encoding="utf-8") as fh:
        return json.load(fh)


def check_passes(
    passes: Sequence[Optional[Dict[str, Any]]]
) -> Tuple[int, int, Optional[str]]:
    """(attempted ops, failed ops, majority digest) over one run's passes.

    A crashed pass fails as many ops as the largest successful pass
    offered; a pass whose digest is not the majority's fails all its ops.
    """
    ok = [p for p in passes if p is not None]
    if not ok:
        return 0, 0, None
    counts = Counter(p["digest"] for p in ok)
    majority = max(counts, key=lambda d: counts[d])  # ties: first seen
    nominal = max(p["ops"] for p in ok)
    attempted = failed = 0
    for p in passes:
        if p is None:
            attempted += nominal
            failed += nominal
            continue
        attempted += p["ops"]
        if p["digest"] != majority:
            failed += p["ops"]
        else:
            failed += min(p["ops"], p["incomplete"] + p["nonfinite"])
    return attempted, failed, majority


def end_to_end_metrics(passes: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Fastest pass's wall and CPU time, largest RSS, median set-up time.

    Other tenants of a shared host only ever add time, and they come and
    go within seconds, so the fastest of many short passes is the
    steadiest estimate of what the program itself costs (bench/README.md
    has the measurements behind this choice).
    """
    return {
        "wall_s": min(p["wall_s"] for p in passes),
        "cpu_s": min(p["cpu_s"] for p in passes),
        "peak_rss_mb": max(p["maxrss_mb"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
    }


def layer_metrics(
    plain: Optional[Dict[str, Any]], traced: Optional[Dict[str, Any]]
) -> Dict[str, float]:
    """Per-layer metrics; a counter whose entry point is gone is left out."""
    out: Dict[str, float] = {}
    if traced is not None:
        for layer, fields in traced["layers"].items():
            if layer == OTHER:
                out["other.self_s"] = fields["self_s"]
                continue
            for name in LAYER_FIELDS:
                out[f"{layer}.{name}"] = fields[name]
    if plain is None:
        return out
    events = plain["perf"].get("events")
    if events is not None:
        out["sim.events"] = events
        out["sim.events_per_op"] = events / plain["ops"] if plain["ops"] else 0.0
        out["sim.events_per_s"] = plain["perf"].get("events_per_s", 0)
    c = plain["counters"]
    if "core.scheduler.rounds" in c:
        rounds = c["core.scheduler.rounds"]
        out["core.scheduler.rounds"] = rounds
        out["core.scheduler.grants_per_round"] = (
            c["core.scheduler.grants"] / rounds if rounds else 0.0
        )
        out["core.scheduler.empty_rounds"] = c["core.scheduler.empty_rounds"]
    if "core.scheduler.pim_runs" in c:
        runs = c["core.scheduler.pim_runs"]
        out["core.scheduler.pim_iters_per_round"] = (
            c["core.scheduler.pim_iterations"] / runs if runs else 0.0
        )
    for name in ("fabrics.probe_s", "workloads.gen_s", "execution.checkpoint_s",
                 "experiments.artifact_s"):
        if name in c:
            out[name] = c[name]
    if traced is not None:
        out["trace.overhead_x"] = traced["wall_s"] / plain["wall_s"]
    return out


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """One benchmark run: the result object plus the digest and outputs."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro' / 'cli.py'} is missing")
    BUILD.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    try:
        # An untimed import first, so byte-compiling a fresh checkout is
        # not charged to setup_s.
        if run_child("setup", workload, seed, tmp, 0) is None:
            raise BenchError("cannot import repro.cli from src/")
        passes: List[Optional[Dict[str, Any]]] = []
        if trace:
            passes.append(run_child("counters", workload, seed, tmp, 1))
            passes.append(run_child("profile", workload, seed, tmp, 2))
        else:
            durations: List[float] = []
            start = time.perf_counter()
            while len(passes) < MAX_PASSES:
                elapsed = time.perf_counter() - start
                if (len(passes) >= MIN_PASSES
                        and elapsed + statistics.median(durations) > seconds):
                    break
                began = time.perf_counter()
                passes.append(run_child("plain", workload, seed, tmp, len(passes) + 1))
                durations.append(time.perf_counter() - began)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed, digest = check_passes(passes)
    if digest is None:
        raise BenchError(f"every pass of {workload.name} failed")
    ok = [p for p in passes if p is not None]
    if trace:
        metrics = layer_metrics(passes[0], passes[1])
        units = per_layer_units()
    else:
        metrics = end_to_end_metrics(ok)
        units = END_TO_END
    results = next(p["results"] for p in ok if p["digest"] == digest)
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        },
        "results_digest": digest,
        "outputs": simulated_outputs(results),
    }


def simulated_outputs(results: Any) -> Any:
    """The artifact's correctness data: normalized latency/MCT, or per-profile
    serving totals (p50/p99/p999, SLO attainment)."""
    if isinstance(results, dict) and all(
        isinstance(v, dict) and "totals" in v for v in results.values()
    ):
        return {name: row["totals"] for name, row in results.items()}
    return results


def git_state() -> Dict[str, Any]:
    """Commit and dirtiness of the checkout, or nulls outside a git tree."""

    def git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
    }


def _seeds(text: str) -> List[int]:
    return [int(part) for part in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=_seeds, default=[1],
                        help="workload seed, or a comma-separated list "
                        "(1 = default, 2 = held out for claims)")
    parser.add_argument("--seconds", type=float, default=30,
                        help="measuring time of an untraced run (default 30)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1 = the per-layer traced run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload and seed")
    parser.add_argument("--save", type=Path, default=None,
                        help="also write every run to this JSON file (compare.py input)")
    return parser


def _print_run(name: str, seed: int, trace: int, measured: Dict[str, Any]) -> None:
    result = measured["result"]
    print(f"# {name} seed={seed} trace={trace} correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} ops "
          f"results_digest={measured['results_digest']}")
    print("# outputs " + json.dumps(measured["outputs"], sort_keys=True))
    for metric, entry in result["metrics"].items():
        print(f"#   {metric:<40} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result), flush=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    names = args.workload or list(WORKLOADS)
    record: Dict[str, Any] = {
        "meta": {
            **(git_state() if args.save else {}),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "seconds": args.seconds,
            "started_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        },
        "runs": [],
    }
    try:
        # Workloads interleave, so slow drift on the host spreads over all.
        for _ in range(args.repeat):
            for seed in args.seed:
                for name in names:
                    measured = measure(WORKLOADS[name], seed, args.seconds,
                                       bool(args.trace))
                    _print_run(name, seed, args.trace, measured)
                    record["runs"].append({
                        "workload": name, "seed": seed, "trace": args.trace,
                        "results_digest": measured["results_digest"],
                        "result": measured["result"],
                    })
                    if args.save:
                        args.save.write_text(json.dumps(record, indent=1) + "\n")
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
