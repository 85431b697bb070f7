"""Experiment drivers and the parallel runner (see DESIGN.md §4).

Importing this package registers every experiment spec (figures and
ablations) with the runner's registry.
"""

from repro.experiments.runner import (
    Cell,
    ExperimentSpec,
    Runner,
    RunnerResult,
    artifact_payload,
    experiment_names,
    get_experiment,
    make_cell,
    register,
    run_experiment,
    write_artifact,
)
from repro.experiments.figures import (
    Figure8aScale,
    Figure8bScale,
    format_grid,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure8a_loads,
    run_figure8a_mix,
    run_figure8b,
    run_table1,
    summarize_shape_checks,
)
from repro.experiments.ablations import FAMILIES, run_ablations
from repro.experiments.serving import (
    format_serving_results,
    serving_profile,
    serving_profiles,
)

# Importing the scenario engine registers the "scenarios" experiment, so
# runner workers (which import this package by name) can resolve it.
import repro.scenarios.engine  # noqa: E402,F401  isort: skip

__all__ = [
    "FAMILIES",
    "Cell",
    "ExperimentSpec",
    "Figure8aScale",
    "Figure8bScale",
    "Runner",
    "RunnerResult",
    "artifact_payload",
    "experiment_names",
    "format_grid",
    "format_serving_results",
    "serving_profile",
    "serving_profiles",
    "get_experiment",
    "make_cell",
    "register",
    "run_ablations",
    "run_experiment",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_figure8a_loads",
    "run_figure8a_mix",
    "run_figure8b",
    "run_table1",
    "summarize_shape_checks",
    "write_artifact",
]
