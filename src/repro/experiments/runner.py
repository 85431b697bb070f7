"""Parallel experiment runner: registry, cell grids, workers, artifacts.

The evaluation surface (Table 1, Figures 5-8, the ablation sweeps)
decomposes into *cells* — independent ``(fabric, load, seed, scale)``
points of a parameter grid.  Each registered :class:`ExperimentSpec`
names its grid builder, a pure per-cell function, a reducer that
reassembles per-cell results into the figure's shape, and a renderer
that prints the reduction.  The :class:`Runner` fans cells out over a
stdlib process pool and keeps results in grid order, so parallel output
is bit-identical to a serial run regardless of worker completion order.

Artifacts: :func:`write_artifact` atomically persists the reduced
results plus the full per-cell record, the run configuration, and git
metadata to ``results/<experiment>/<stamp>.json`` so sweeps are
comparable across commits.  Completed cells also stream to a crash-safe
checkpoint journal when ``Runner.run`` is given a ``checkpoint_path``,
so an interrupted sweep resumes from disk (``resume_from``) instead of
starting over — contract in docs/RESILIENCE.md.
"""

from __future__ import annotations

import gc
import os
import subprocess
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigError, ExecutionError
from repro.execution.atomic import atomic_write_json
from repro.execution.checkpoint import CheckpointWriter, load_checkpoint
from repro.sim.engine import process_events_executed

#: Frozen, hashable form of a parameter mapping (sorted key/value pairs).
Params = Tuple[Tuple[str, Any], ...]


def _freeze(params: Optional[Mapping[str, Any]]) -> Params:
    if not params:
        return ()
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class Cell:
    """One point of an experiment's parameter grid.

    ``scale`` holds the simulation-size knobs (node count, message count,
    deadline); ``extra`` holds experiment-specific parameters (app name,
    write:read mix, ablation setting).  Both are stored as sorted tuples
    so cells are hashable, picklable, and produce stable keys.
    """

    experiment: str
    fabric: Optional[str] = None
    load: Optional[float] = None
    seed: int = 0
    scale: Params = ()
    extra: Params = ()

    def param(self, name: str, default: Any = None) -> Any:
        """Look up a parameter in ``extra`` then ``scale``."""
        for key, value in self.extra + self.scale:
            if key == name:
                return value
        return default

    @property
    def key(self) -> str:
        """Stable human-readable identity, used to key artifact records."""
        parts: List[str] = []
        if self.fabric is not None:
            parts.append(f"fabric={self.fabric}")
        if self.load is not None:
            parts.append(f"load={self.load:g}")
        parts.append(f"seed={self.seed}")
        parts.extend(f"{k}={v}" for k, v in self.extra)
        return " ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"experiment": self.experiment, "seed": self.seed}
        if self.fabric is not None:
            out["fabric"] = self.fabric
        if self.load is not None:
            out["load"] = self.load
        if self.scale:
            out["scale"] = dict(self.scale)
        if self.extra:
            out["extra"] = dict(self.extra)
        return out


def make_cell(
    experiment: str,
    *,
    fabric: Optional[str] = None,
    load: Optional[float] = None,
    seed: int = 0,
    scale: Optional[Mapping[str, Any]] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Cell:
    """Build a :class:`Cell`, freezing the parameter mappings."""
    return Cell(
        experiment=experiment,
        fabric=fabric,
        load=load,
        seed=seed,
        scale=_freeze(scale),
        extra=_freeze(extra),
    )


# --------------------------------------------------------------------------- #
# Registry                                                                    #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment: grid builder, pure cell function, reducer, renderer.

    ``run_cell`` must be a module-level function — worker processes look
    the spec up by name and call it, so it is never pickled itself.
    ``reduce`` receives the cells and their results in grid order;
    ``render`` turns the reduction into the text ``repro.cli run``
    prints.
    """

    name: str
    description: str
    build_cells: Callable[..., Sequence[Cell]]
    run_cell: Callable[[Cell], Any]
    reduce: Callable[[Sequence[Cell], Sequence[Any]], Any]
    render: Callable[[Any], str] = str


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the global registry (idempotent per identical name)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing is not spec:
        raise ConfigError(f"experiment {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def _ensure_registered() -> None:
    # Importing the package pulls in every module that registers specs;
    # needed in workers started with the "spawn" method, where module
    # state is not inherited from the parent.
    import repro.experiments  # noqa: F401


def get_experiment(name: str) -> ExperimentSpec:
    _ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown experiment {name!r} (known: {known})") from exc


def experiment_names() -> List[str]:
    _ensure_registered()
    return sorted(_REGISTRY)


# --------------------------------------------------------------------------- #
# Runner                                                                      #
# --------------------------------------------------------------------------- #


def _timed_cell(spec: ExperimentSpec, cell: Cell) -> Tuple[Any, Dict[str, float]]:
    """Run one cell, measuring wall-clock and simulator events executed.

    Events are read from the process-wide engine counter, so the number
    covers every Simulator the cell spun up (runs plus unloaded probes)
    without threading a handle through the fabric models.  Analytic cells
    that never touch the simulator report zero events.
    """
    events_before = process_events_executed()
    # Cyclic GC off while the cell runs: the event loop allocates entry
    # tuples and bound methods at a rate that triggers a gen-0 collection
    # every few hundred events, and a cell's working set is bounded, so deferring
    # collection to the cell boundary is a measurable win at no risk.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    start = time.perf_counter()
    try:
        value = spec.run_cell(cell)
    finally:
        if gc_was_enabled:
            gc.enable()
    wall_s = time.perf_counter() - start
    events = process_events_executed() - events_before
    perf = {
        "wall_s": round(wall_s, 6),
        "events": events,
        "events_per_s": round(events / wall_s) if wall_s > 0 else 0,
    }
    return value, perf


def _named_cell(name: str, cell: Cell) -> Tuple[Any, Dict[str, float]]:
    """Pool task: look the spec up by name in the worker and run one cell."""
    return _timed_cell(get_experiment(name), cell)


@dataclass
class RunnerResult:
    """Outcome of one experiment run: per-cell results plus the reduction.

    ``cell_perf`` holds one ``{wall_s, events, events_per_s}`` record
    per cell (simulator events executed while the cell ran), so
    artifacts track the evaluation's throughput trajectory commit over
    commit.  Cells replayed from a checkpoint carry ``resumed: true``.
    """

    experiment: str
    jobs: int
    cells: List[Cell]
    cell_results: List[Any]
    reduced: Any
    elapsed_s: float
    cell_perf: List[Dict[str, float]] = field(default_factory=list)

    def by_key(self) -> Dict[str, Any]:
        return {c.key: r for c, r in zip(self.cells, self.cell_results)}

    def perf_summary(self) -> Dict[str, float]:
        """Aggregate events/wall over the cells (wall sums worker time).

        The throughput ratio is computed over cells this process ran: a
        resumed cell's wall time was measured by an earlier process, so
        it is excluded from ``events_per_s``.  Event *counts* still sum
        over every cell: they are deterministic.  The repo benchmark
        (``bench/run.py``) reads both fields from the artifact's
        ``perf`` block.
        """
        events = sum(p["events"] for p in self.cell_perf)
        wall = sum(p["wall_s"] for p in self.cell_perf)
        fresh = [p for p in self.cell_perf if not p.get("resumed")]
        fresh_events = sum(p["events"] for p in fresh)
        fresh_wall = sum(p["wall_s"] for p in fresh)
        summary: Dict[str, float] = {
            "events": events,
            "cell_wall_s": round(wall, 6),
            "events_per_s": (
                round(fresh_events / fresh_wall) if fresh_wall > 0 else 0
            ),
            "elapsed_s": round(self.elapsed_s, 6),
        }
        resumed = sum(1 for p in self.cell_perf if p.get("resumed"))
        if resumed:
            summary["resumed_cells"] = resumed
        return summary


class Runner:
    """Fans experiment cells out over a ``ProcessPoolExecutor``.

    ``jobs=1`` runs in-process through the same per-cell code path, so
    the two modes are numerically identical by construction.  With
    ``jobs > 1`` an exception inside a cell propagates unchanged, as it
    does serially; a worker process that dies raises
    :class:`~repro.errors.ExecutionError`.  There is no per-cell
    timeout or retry: a cell is a pure function of its seed, so a retry
    would raise again.

    ``run(checkpoint_path=...)`` streams completed cells to a crash-safe
    journal; ``run(resume_from=...)`` replays a journal and executes only
    the remainder.  Resumed results live in JSON space (tuples become
    lists), which every registered reducer already consumes.
    """

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def run(
        self,
        experiment: Union[str, ExperimentSpec],
        *,
        checkpoint_path: Optional[str] = None,
        resume_from: Optional[str] = None,
        **options: Any,
    ) -> RunnerResult:
        spec = (
            experiment
            if isinstance(experiment, ExperimentSpec)
            else get_experiment(experiment)
        )
        cells = list(spec.build_cells(**options))
        if not cells:
            raise ConfigError(f"experiment {spec.name!r} built an empty grid")
        prefilled: Dict[int, Tuple[Any, Dict[str, Any]]] = {}
        if resume_from is not None:
            prefilled = load_checkpoint(resume_from, spec.name, cells)
        journal: Optional[CheckpointWriter] = None
        if checkpoint_path is not None:
            journal = CheckpointWriter(
                checkpoint_path, spec.name, cells, default=_json_default
            )
        start = time.perf_counter()
        try:
            results, perf = self._map(
                spec, cells, journal=journal, prefilled=prefilled
            )
        finally:
            if journal is not None:
                journal.close()
        reduced = spec.reduce(cells, results)
        elapsed = time.perf_counter() - start
        return RunnerResult(
            experiment=spec.name,
            jobs=self.jobs,
            cells=cells,
            cell_results=results,
            reduced=reduced,
            elapsed_s=elapsed,
            cell_perf=perf,
        )

    def _map(
        self,
        spec: ExperimentSpec,
        cells: List[Cell],
        journal: Optional[CheckpointWriter] = None,
        prefilled: Optional[Dict[int, Tuple[Any, Dict[str, Any]]]] = None,
    ) -> Tuple[List[Any], List[Dict[str, float]]]:
        prefilled = prefilled or {}
        if self.jobs == 1 or len(cells) == 1:
            results: List[Any] = []
            perf: List[Dict[str, float]] = []
            for index, cell in enumerate(cells):
                if index in prefilled:
                    value, cell_perf = prefilled[index]
                else:
                    value, cell_perf = _timed_cell(spec, cell)
                    if journal is not None:
                        journal.record(index, cell, value, cell_perf)
                results.append(value)
                perf.append(cell_perf)
            return results, perf
        # Workers resolve the spec by name, so an unregistered (or
        # name-shadowed) spec would run the wrong run_cell over there.
        if _REGISTRY.get(spec.name) is not spec:
            raise ConfigError(
                f"experiment {spec.name!r} must be register()ed (and not "
                f"shadowed) before running with jobs > 1"
            )
        results = [None] * len(cells)
        perf = [{} for _ in cells]
        for index, (value, cell_perf) in prefilled.items():
            results[index], perf[index] = value, cell_perf
        todo = [index for index in range(len(cells)) if index not in prefilled]
        if not todo:
            return results, perf
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=min(self.jobs, len(todo))) as pool:
                done = pool.map(
                    _named_cell,
                    [spec.name] * len(todo),
                    [cells[index] for index in todo],
                )
                for index, (value, cell_perf) in zip(todo, done):
                    results[index], perf[index] = value, cell_perf
                    if journal is not None:
                        journal.record(index, cells[index], value, cell_perf)
        except BrokenProcessPool as exc:
            raise ExecutionError(
                f"a worker process died while running {spec.name!r}: {exc}"
            ) from exc
        return results, perf


def run_experiment(name: str, *, jobs: int = 1, **options: Any) -> Any:
    """Convenience wrapper: run a registered experiment, return the reduction."""
    return Runner(jobs=jobs).run(name, **options).reduced


# --------------------------------------------------------------------------- #
# Artifacts                                                                   #
# --------------------------------------------------------------------------- #

ARTIFACT_SCHEMA_VERSION = 1


def git_metadata(cwd: Optional[str] = None) -> Dict[str, Any]:
    """Best-effort commit/branch/dirty info for trend tracking.

    Defaults to the directory this module lives in, so artifacts record
    the state of the repo the *code* came from, not whatever directory
    the process happens to run in.  All fields are null when the code is
    not inside a git checkout (e.g. installed into site-packages).
    """
    if cwd is None:
        cwd = os.path.dirname(os.path.abspath(__file__))

    def _git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ["git", *args],
                cwd=cwd,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "branch": _git("rev-parse", "--abbrev-ref", "HEAD"),
        "dirty": bool(status) if status is not None else None,
    }


def _json_default(value: Any) -> Any:
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    if hasattr(value, "to_dict"):
        return value.to_dict()
    raise TypeError(f"not JSON-serializable: {type(value)!r}")


def artifact_payload(
    result: RunnerResult,
    config: Optional[Mapping[str, Any]] = None,
    created_at: Optional[str] = None,
) -> Dict[str, Any]:
    """The artifact body; split out so tests can compare modulo timestamps."""
    return {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "experiment": result.experiment,
        "created_at": created_at
        or datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "jobs": result.jobs,
        "elapsed_s": round(result.elapsed_s, 3),
        "perf": result.perf_summary(),
        "git": git_metadata(),
        "config": dict(config or {}),
        "cells": [
            {
                "key": cell.key,
                **cell.to_dict(),
                "result": value,
                **({"perf": perf} if perf else {}),
            }
            for cell, value, perf in zip(
                result.cells,
                result.cell_results,
                result.cell_perf or [{}] * len(result.cells),
            )
        ],
        "results": result.reduced,
    }


def write_artifact(
    result: RunnerResult,
    out_dir: str = "results",
    config: Optional[Mapping[str, Any]] = None,
) -> str:
    """Persist a run to ``<out_dir>/<experiment>/<stamp>.json``; returns the path.

    The write is atomic (temp sibling, fsync, ``os.replace``): an
    interrupted run can never leave truncated JSON at the final path.
    """
    directory = os.path.join(out_dir, result.experiment)
    os.makedirs(directory, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    path = os.path.join(directory, f"{stamp}.json")
    suffix = 1
    while os.path.exists(path):
        path = os.path.join(directory, f"{stamp}-{suffix}.json")
        suffix += 1
    payload = artifact_payload(result, config=config)
    return atomic_write_json(path, payload, default=_json_default)
