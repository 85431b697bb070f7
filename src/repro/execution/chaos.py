"""Deterministic fault injector for the execution layer (test/CI only).

Chaos faults are declared in the ``REPRO_CHAOS`` environment variable and
fire at fixed hook points inside the execution layer, so tests can
*assert* the supervisor's recovery behaviour instead of hoping a real
crash shows up.  Nothing in this module runs unless ``REPRO_CHAOS`` is
set; production runs pay one empty ``os.environ`` lookup per hook.

Grammar (documented in docs/RESILIENCE.md)::

    REPRO_CHAOS = fault ( ";" fault )*
    fault       = kind ( ":" key "=" value )*

* ``kill_worker:cell=3`` — the worker process running grid cell 3 calls
  ``os._exit`` before executing the cell (first attempt only; add
  ``:count=2`` to also kill the first retry, and so on).
* ``hang:cell=3`` — the worker sleeps past any cell timeout instead of
  running the cell (same ``count`` semantics).
* ``partial_artifact`` — the next atomic artifact write aborts midway
  through its temp file (per-process, ``count`` times), proving an
  interrupted run can never leave truncated JSON at the final path.

Each kind accepts only its own keys (:data:`CHAOS_KEYS`); a typo such as
``kill_worker:cel=3`` is a :class:`~repro.errors.ConfigError`, not a fault
that parses cleanly and then never fires.

Every hook is deterministic: a fault either always fires at its hook for
a given (target, attempt) or never does, so chaos runs are exactly
reproducible.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigError

#: Environment variable holding the chaos fault list.
CHAOS_ENV = "REPRO_CHAOS"

#: Exit code used by chaos-killed workers (recognizable in incident logs).
CHAOS_EXIT_CODE = 13

#: How long a chaos "hang" sleeps; any sane timeout expires first.
DEFAULT_HOLD_S = 3600.0


@dataclass(frozen=True)
class ChaosFault:
    """One parsed fault: a kind, its target params, and a fire budget."""

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()
    count: int = 1

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def matches(self, kind: str, attrs: Dict[str, Any]) -> bool:
        """True when every targeting param agrees with ``attrs``."""
        if self.kind != kind:
            return False
        return all(
            key in attrs and attrs[key] == value
            for key, value in self.params
            if key not in ("count", "hold_s")
        )


#: The param keys each fault kind accepts.
CHAOS_KEYS = {
    "kill_worker": ("cell", "count", "hold_s"),
    "hang": ("cell", "count", "hold_s"),
    "partial_artifact": ("count",),
}


def parse_chaos(text: str) -> Tuple[ChaosFault, ...]:
    """Parse a ``REPRO_CHAOS`` value; raises :class:`ConfigError` on junk."""
    faults = []
    for chunk in filter(None, (p.strip() for p in text.split(";"))):
        kind, _, rest = chunk.partition(":")
        if kind not in CHAOS_KEYS:
            raise ConfigError(
                f"unknown chaos fault kind {kind!r} in {chunk!r} "
                f"(known: {', '.join(CHAOS_KEYS)})"
            )
        allowed = CHAOS_KEYS[kind]
        params = []
        count = 1
        for pair in filter(None, rest.split(":")):
            key, sep, raw = pair.partition("=")
            if not sep or not key or not raw:
                raise ConfigError(f"chaos param {pair!r} is not key=value")
            if key not in allowed:
                raise ConfigError(
                    f"unknown chaos param {key!r} for {kind!r} in {chunk!r} "
                    f"(allowed: {', '.join(allowed)})"
                )
            try:
                value: Any = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
            if key == "count":
                if not isinstance(value, int) or value < 1:
                    raise ConfigError(f"chaos count must be a positive int: {pair!r}")
                count = value
            else:
                params.append((key, value))
        faults.append(ChaosFault(kind=kind, params=tuple(params), count=count))
    return tuple(faults)


def active_faults() -> Tuple[ChaosFault, ...]:
    """The faults currently declared in the environment (may be empty)."""
    text = os.environ.get(CHAOS_ENV, "")
    return parse_chaos(text) if text else ()


def find_fault(kind: str, **attrs: Any) -> Optional[ChaosFault]:
    """First active fault of ``kind`` whose params match ``attrs``."""
    for fault in active_faults():
        if fault.matches(kind, attrs):
            return fault
    return None


def apply_cell_chaos(index: int, attempt: int) -> None:
    """Worker-side hook, called just before a grid cell executes.

    ``attempt`` is 1-based; a fault fires while ``attempt <= count`` so a
    retried cell eventually runs clean — the supervisor's recovery, not
    the chaos schedule, decides whether the grid completes.
    """
    fault = find_fault("kill_worker", cell=index)
    if fault is not None and attempt <= fault.count:
        os._exit(CHAOS_EXIT_CODE)
    fault = find_fault("hang", cell=index)
    if fault is not None and attempt <= fault.count:
        time.sleep(float(fault.param("hold_s", DEFAULT_HOLD_S)))


@dataclass
class _ProcessState:
    """Per-process fire counters for hooks without an attempt axis."""

    partial_artifact_fired: int = 0


_STATE = _ProcessState()


def take_partial_artifact_fault() -> bool:
    """Consume one ``partial_artifact`` firing (per-process budget)."""
    fault = find_fault("partial_artifact")
    if fault is None or _STATE.partial_artifact_fired >= fault.count:
        return False
    _STATE.partial_artifact_fired += 1
    return True


def reset_chaos_state() -> None:
    """Forget per-process fire counters (test isolation helper)."""
    global _STATE
    _STATE = _ProcessState()
