"""Layer map of ``src/repro`` and attribution of a cProfile capture to it.

A layer is a package directly under ``src/repro``, except that
``core/scheduler`` is its own layer (``core.scheduler``) and the
top-level modules (``cli.py``, ``errors.py``, ``__init__.py``) form the
``cli`` layer.  Time spent in C builtins, the standard library, numpy or
the benchmark's own wrappers is charged to the layer that called it;
whatever cannot be traced back to a layer is ``other``.

The attribution works on a plain call graph (self time per function plus
per-edge call counts and times), so tests can feed it a toy graph
without running the profiler.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

OTHER = "other"

#: Subpackages split out of their parent package into a layer of their own.
SPLIT_LAYERS = {("core", "scheduler"): "core.scheduler"}

#: Layer of the modules that sit directly in ``src/repro``.
TOP_LEVEL_LAYER = "cli"


def layer_of_path(path: str, package_dir: str) -> Optional[str]:
    """Layer of a source file, or None when it is outside ``package_dir``."""
    rel = os.path.relpath(os.path.realpath(path), os.path.realpath(package_dir))
    if rel.startswith(os.pardir) or os.path.isabs(rel):
        return None
    parts = rel.split(os.sep)
    if len(parts) == 1:
        return TOP_LEVEL_LAYER
    return SPLIT_LAYERS.get(tuple(parts[:2]), parts[0])


def package_layers(package_dir: str) -> Dict[str, str]:
    """Every package under ``package_dir`` (dotted name) -> its layer."""
    out: Dict[str, str] = {}
    for dirpath, dirnames, filenames in os.walk(package_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        if "__init__.py" not in filenames:
            continue
        rel = os.path.relpath(dirpath, package_dir)
        name = "repro" if rel == os.curdir else "repro." + rel.replace(os.sep, ".")
        out[name] = layer_of_path(os.path.join(dirpath, "__init__.py"), package_dir)
    return out


def layer_names(package_dir: str) -> List[str]:
    """The sorted layer names of the package tree."""
    return sorted(set(package_layers(package_dir).values()))


@dataclass
class CallGraph:
    """Self time per function and per-edge ``(calls, self time, cum time)``.

    Function keys are any hashables; ``edges[(caller, callee)]`` holds the
    calls from caller to callee, the callee's self time and its
    cumulative time on those calls.
    """

    self_time: Dict[Hashable, float] = field(default_factory=dict)
    edges: Dict[Tuple[Hashable, Hashable], Tuple[int, float, float]] = field(
        default_factory=dict
    )


def _label(code) -> Tuple[str, int, str]:
    if isinstance(code, str):  # a C function: cProfile stores its repr
        return ("~", 0, code)
    return (code.co_filename, code.co_firstlineno, code.co_name)


def graph_from_profiler(profiler) -> CallGraph:
    """Build a :class:`CallGraph` from a disabled ``cProfile.Profile``."""
    graph = CallGraph()
    for entry in profiler.getstats():
        func = _label(entry.code)
        graph.self_time[func] = graph.self_time.get(func, 0.0) + entry.inlinetime
        for sub in entry.calls or ():
            key = (func, _label(sub.code))
            calls, tt, ct = graph.edges.get(key, (0, 0.0, 0.0))
            graph.edges[key] = (
                calls + sub.callcount, tt + sub.inlinetime, ct + sub.totaltime
            )
    return graph


def attribute(
    graph: CallGraph, layer_of: Callable[[Hashable], Optional[str]]
) -> Dict[str, Dict[str, float]]:
    """Charge the graph's self time and inbound calls to layers.

    Returns ``{"self_s": {layer: s}, "calls_in": {layer: n}}``.  A
    function outside every layer passes its self time to its callers in
    proportion to the time it spent on each caller's behalf; a chain of
    such functions is followed up to the first caller inside a layer.
    ``calls_in`` counts calls into a layer from any other layer; a caller
    outside every layer counts as the layer that calls it most often, so
    the count depends only on the call graph, never on timing.
    """
    callers: Dict[Hashable, List[Tuple[Hashable, int, float, float]]] = defaultdict(list)
    for (caller, callee), (calls, tt, ct) in graph.edges.items():
        callers[callee].append((caller, calls, tt, ct))
    for incoming in callers.values():
        incoming.sort(key=repr)  # a fixed order keeps float sums repeatable

    layer_cache: Dict[Hashable, Optional[str]] = {}

    def layer(func: Hashable) -> Optional[str]:
        if func not in layer_cache:
            layer_cache[func] = layer_of(func)
        return layer_cache[func]

    time_owner: Dict[Hashable, Dict[str, float]] = {}
    home: Dict[Hashable, str] = {}

    def owners(func: Hashable, stack: set) -> Dict[str, float]:
        """Share of ``func``'s time owed to each layer."""
        own = layer(func)
        if own is not None:
            return {own: 1.0}
        if func in time_owner:
            return time_owner[func]
        if func in stack:  # a cycle outside every layer
            return {OTHER: 1.0}
        stack.add(func)
        incoming = callers.get(func, ())
        total = sum(ct for _, _, _, ct in incoming)
        dist: Dict[str, float] = defaultdict(float)
        if total > 0:
            for caller, _, _, ct in incoming:
                for name, share in owners(caller, stack).items():
                    dist[name] += share * ct / total
        else:
            dist[OTHER] = 1.0
        stack.discard(func)
        time_owner[func] = dict(dist)
        return time_owner[func]

    def home_layer(func: Hashable, stack: set) -> str:
        """The layer on whose behalf ``func`` is called most often."""
        own = layer(func)
        if own is not None:
            return own
        if func in home:
            return home[func]
        if func in stack:
            return OTHER
        stack.add(func)
        votes: Dict[str, int] = defaultdict(int)
        for caller, calls, _, _ in callers.get(func, ()):
            votes[home_layer(caller, stack)] += calls
        stack.discard(func)
        home[func] = (
            min(votes, key=lambda name: (-votes[name], name)) if votes else OTHER
        )
        return home[func]

    self_s: Dict[str, float] = defaultdict(float)
    for func in sorted(graph.self_time, key=repr):
        tt = graph.self_time[func]
        own = layer(func)
        if own is not None:
            self_s[own] += tt
            continue
        charged = 0.0
        for caller, _, edge_tt, _ in callers.get(func, ()):
            for name, share in owners(caller, set()).items():
                self_s[name] += edge_tt * share
            charged += edge_tt
        self_s[OTHER] += max(tt - charged, 0.0)

    calls_in: Dict[str, float] = defaultdict(float)
    for (caller, callee), (calls, _, _) in sorted(graph.edges.items(), key=repr):
        target = layer(callee)
        if target is not None and home_layer(caller, set()) != target:
            calls_in[target] += calls
    return {"self_s": dict(self_s), "calls_in": dict(calls_in)}


def layer_profile(profiler, package_dir: str) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s``, ``share`` and ``calls_in`` of one capture.

    Every layer of the package tree is present (zero when untouched), plus
    ``other``; shares are of the capture's total self time.
    """
    graph = graph_from_profiler(profiler)
    path_layers: Dict[str, Optional[str]] = {}

    def layer_of(func: Hashable) -> Optional[str]:
        path = func[0]
        if path not in path_layers:
            path_layers[path] = (
                None if path == "~" else layer_of_path(path, package_dir)
            )
        return path_layers[path]

    attributed = attribute(graph, layer_of)
    total = sum(graph.self_time.values())
    out: Dict[str, Dict[str, float]] = {}
    for name in layer_names(package_dir) + [OTHER]:
        self_s = attributed["self_s"].get(name, 0.0)
        out[name] = {
            "self_s": self_s,
            "share": self_s / total if total > 0 else 0.0,
            "calls_in": int(attributed["calls_in"].get(name, 0)),
        }
    return out
