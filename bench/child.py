"""One benchmark pass in a fresh process.

Usage: ``python3 bench/child.py SPEC_JSON``, where the spec holds

* ``src``: the ``src`` directory whose ``repro`` package to run;
* ``argv``: the ``repro.cli`` arguments (``run <experiment> ...``);
* ``out``: the artifact directory the argv points ``--out`` at;
* ``result``: where to write this pass's JSON result;
* ``mode``: ``"setup"`` (import only), ``"plain"``, ``"counters"``
  (plus layer counters and timers) or ``"profile"`` (plus cProfile).

The pass times the import of ``repro.cli`` (``setup_s``) and, apart, the
call of ``repro.cli.main`` (``wall_s``, ``cpu_s``), then reads the
artifact back to check it.  Every mode observes the fabric classes'
public ``run`` to count offered and incomplete messages.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import resource
import sys
import time
from typing import Any, Callable, Dict, Optional, Tuple


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _patch_function(module_name: str, attr: str, wrap: Callable) -> bool:
    """Replace a function everywhere a loaded repro module binds it."""
    original = getattr(sys.modules.get(module_name), attr, None)
    if original is None:
        return False
    wrapped = wrap(original)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)
    return True


def _patch_method(module_name: str, cls_name: str, attr: str, wrap: Callable) -> bool:
    cls = getattr(sys.modules.get(module_name), cls_name, None)
    original = getattr(cls, attr, None) if cls is not None else None
    if original is None:
        return False
    setattr(cls, attr, wrap(original))
    return True


class Tally:
    """Counts and cumulative times gathered by the wrappers of one pass."""

    def __init__(self) -> None:
        self.offered = 0
        self.incomplete = 0
        self.counters: Dict[str, float] = {}
        self._depth: Dict[str, int] = {}

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def timer(self, name: str) -> Callable:
        """Wrap a callable to add its outermost calls' wall time to ``name``."""

        def wrap(original: Callable) -> Callable:
            self.counters.setdefault(name, 0.0)

            def timed(*args, **kwargs):
                depth = self._depth.get(name, 0)
                self._depth[name] = depth + 1
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self._depth[name] = depth
                    if depth == 0:
                        self.add(name, time.perf_counter() - start)

            return timed

        return wrap


def observe_fabric_runs(tally: Tally) -> None:
    """Count offered and incomplete messages of every outermost ``run``."""
    from repro.fabrics import FABRIC_REGISTRY

    owners = set()
    for info in FABRIC_REGISTRY.values():
        for cls in getattr(info.factory, "__mro__", ()):
            if "run" in vars(cls):
                owners.add(cls)
                break
    depth = [0]

    def wrap(original: Callable) -> Callable:
        def run(self, messages, *args, **kwargs):
            depth[0] += 1
            try:
                result = original(self, messages, *args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                tally.offered += len(result.records) + result.incomplete
                tally.incomplete += result.incomplete
            return result

        return run

    for cls in sorted(owners, key=lambda c: c.__qualname__):
        setattr(cls, "run", wrap(vars(cls)["run"]))


def install_counters(tally: Tally) -> None:
    """Layer counters and timers; an entry point that is gone is skipped."""

    def schedule_counter(original: Callable) -> Callable:
        def schedule(self, *args, **kwargs):
            issued = original(self, *args, **kwargs)
            tally.add("core.scheduler.rounds", 1)
            tally.add("core.scheduler.grants", len(issued))
            if not issued:
                tally.add("core.scheduler.empty_rounds", 1)
            return issued

        return schedule

    def pim_counter(original: Callable) -> Callable:
        def run(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            tally.add("core.scheduler.pim_runs", 1)
            tally.add("core.scheduler.pim_iterations", result.iterations)
            return result

        return run

    if _patch_method("repro.core.scheduler.grants", "CentralScheduler",
                     "schedule", schedule_counter):
        for name in ("rounds", "grants", "empty_rounds"):
            tally.counters.setdefault(f"core.scheduler.{name}", 0)
    if _patch_method("repro.core.scheduler.pim", "PimMatcher", "run", pim_counter):
        for name in ("pim_runs", "pim_iterations"):
            tally.counters.setdefault(f"core.scheduler.{name}", 0)
    _patch_method("repro.fabrics.base", "Fabric", "measure_unloaded",
                  tally.timer("fabrics.probe_s"))
    _patch_method("repro.workloads.api", "Workload", "materialize",
                  tally.timer("workloads.gen_s"))
    _patch_method("repro.execution.checkpoint", "CheckpointWriter", "record",
                  tally.timer("execution.checkpoint_s"))
    _patch_function("repro.experiments.runner", "write_artifact",
                    tally.timer("experiments.artifact_s"))


def results_digest(results: Any) -> str:
    """sha256 of an artifact's ``results``, in canonical JSON."""
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def count_nonfinite(value: Any) -> int:
    """Non-finite numbers anywhere in a JSON value."""
    if isinstance(value, float):
        return 0 if math.isfinite(value) else 1
    if isinstance(value, dict):
        return sum(count_nonfinite(v) for v in value.values())
    if isinstance(value, list):
        return sum(count_nonfinite(v) for v in value)
    return 0


def serving_ops(results: Any) -> Tuple[int, int]:
    """(issued, issued - completed) summed over a serving artifact's rows."""
    issued = incomplete = 0
    for row in results.values():
        totals = row["totals"]
        issued += int(totals["issued"])
        incomplete += int(totals["issued"]) - int(totals["completed"])
    return issued, incomplete


def read_artifact(out_dir: str) -> Dict[str, Any]:
    paths = sorted(glob.glob(os.path.join(out_dir, "*", "*.json")))
    if len(paths) != 1:
        raise SystemExit(f"expected one artifact under {out_dir}, found {len(paths)}")
    with open(paths[0], encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(spec: Dict[str, Any]) -> Dict[str, Any]:
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    start = time.perf_counter()
    import repro.cli

    setup_s = time.perf_counter() - start
    if not os.path.realpath(repro.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"repro imported from {repro.cli.__file__}, not {src}")
    out: Dict[str, Any] = {"setup_s": setup_s}
    if spec["mode"] == "setup":
        return out

    tally = Tally()
    observe_fabric_runs(tally)
    if spec["mode"] == "counters":
        install_counters(tally)
    profiler: Optional[Any] = None
    if spec["mode"] == "profile":
        import cProfile

        profiler = cProfile.Profile()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        repro.cli.main(spec["argv"])
    finally:
        if profiler is not None:
            profiler.disable()
    out["wall_s"] = time.perf_counter() - start
    out["cpu_s"] = _cpu_s() - cpu0
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    artifact = read_artifact(spec["out"])
    results = artifact["results"]
    offered, incomplete = tally.offered, tally.incomplete
    if artifact.get("experiment") == "serving":
        offered, incomplete = serving_ops(results)
    out.update(
        ops=offered,
        incomplete=incomplete,
        nonfinite=count_nonfinite(results),
        digest=results_digest(results),
        results=results,
        perf=artifact.get("perf", {}),
        counters=tally.counters,
    )
    if profiler is not None:
        from layers import layer_profile

        out["layers"] = layer_profile(profiler, os.path.join(src, "repro"))
    return out


def main() -> None:
    spec = json.loads(sys.argv[1])
    result = run_pass(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
