"""The unified streaming workload API.

Every workload — synthetic all-to-all, pure shapes, app traces, YCSB op
streams — implements one protocol: a :class:`Workload` built from a
frozen spec whose :meth:`~Workload.arrivals` lazily yields items in
arrival order.  Nothing is materialized up front, so peak memory is O(1)
in the message count (streams hold one pending item per merge source,
never the whole workload), and a million-message arrival process costs
the same resident memory as a thousand-message one.

Three layers:

* :class:`RateShape` / :class:`ArrivalProcess` — lazy (optionally
  diurnal- or bursty-modulated) Poisson arrival-time streams, shared by
  the open-loop generators and the closed-loop serving subsystem's
  think-time modulation.
* :class:`Workload` + the spec registry — ``workload_from_spec`` turns
  any registered spec dataclass (or a ``{"kind": ...}`` mapping) into a
  streaming workload; new workload families plug in with
  :func:`register_workload`.
* :class:`WorkloadFeeder` — pumps a stream into a live
  :class:`~repro.sim.engine.Simulator` chunk by chunk through the
  kernel's ``schedule_batch``/``post_at``, so the pending-event
  set holds one chunk of future arrivals instead of all of them.

The five legacy free functions (``generate``, ``generate_trace``,
``generate_ops``, ``generate_incast``, ``generate_shuffle``) survive as
deprecated shims that materialize the corresponding stream; see the
README's migration guide.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
)

import numpy as np

from repro.errors import WorkloadError
from repro.sim.rng import SeedLike, make_rng

#: Rate-modulation shapes the arrival machinery understands.
RATE_SHAPES = ("steady", "diurnal", "bursty")


def substream(seed: Optional[int], *key: int) -> np.random.Generator:
    """An independent, reproducible child RNG for one workload substream.

    Derived from ``(seed, *key)`` through :class:`numpy.random.SeedSequence`,
    so per-source streams can be generated lazily and merged in time order
    without replaying one shared generator's draw sequence.  ``seed=None``
    asks for fresh OS entropy (a non-reproducible workload, as with the
    legacy generators).
    """
    if seed is None:
        return make_rng(None)
    return np.random.default_rng(np.random.SeedSequence((int(seed), *key)))


@dataclass(frozen=True)
class RateShape:
    """Multiplicative arrival-rate modulation over simulated time.

    * ``steady`` — factor 1 everywhere (a homogeneous Poisson process).
    * ``diurnal`` — ``1 + amplitude * sin(2*pi*t/period_ns)``: the smooth
      day/night swing of user-facing serving traffic, compressed onto a
      simulation-scale period.
    * ``bursty`` — an on/off square wave: ``burst_factor`` for the first
      ``duty`` fraction of every period, ``1`` otherwise (flash crowds,
      batch-job fan-in).

    The factor scales *rate*: a closed-loop client divides its think time
    by it, an open-loop process multiplies its intensity by it.
    """

    kind: str = "steady"
    period_ns: float = 1e6
    amplitude: float = 0.5
    burst_factor: float = 4.0
    duty: float = 0.2

    def __post_init__(self) -> None:
        if self.kind not in RATE_SHAPES:
            raise WorkloadError(
                f"unknown rate shape {self.kind!r} (known: {', '.join(RATE_SHAPES)})"
            )
        if self.period_ns <= 0:
            raise WorkloadError(f"period must be positive: {self.period_ns}")
        if not 0 <= self.amplitude < 1:
            raise WorkloadError(f"amplitude must be in [0,1): {self.amplitude}")
        if self.burst_factor < 1:
            raise WorkloadError(f"burst factor must be >= 1: {self.burst_factor}")
        if not 0 < self.duty <= 1:
            raise WorkloadError(f"duty cycle must be in (0,1]: {self.duty}")

    def factor(self, t_ns: float) -> float:
        """The instantaneous rate multiplier at simulated time ``t_ns``."""
        if self.kind == "steady":
            return 1.0
        if self.kind == "diurnal":
            return 1.0 + self.amplitude * math.sin(
                2.0 * math.pi * t_ns / self.period_ns
            )
        phase = (t_ns / self.period_ns) % 1.0
        return self.burst_factor if phase < self.duty else 1.0

    @property
    def peak_factor(self) -> float:
        """Upper bound of :meth:`factor`, for thinning-based sampling."""
        if self.kind == "steady":
            return 1.0
        if self.kind == "diurnal":
            return 1.0 + self.amplitude
        return self.burst_factor

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "period_ns": self.period_ns,
            "amplitude": self.amplitude,
            "burst_factor": self.burst_factor,
            "duty": self.duty,
        }


class ArrivalProcess:
    """A lazy Poisson arrival-time stream with optional rate modulation.

    Yields absolute arrival times (ns), strictly increasing, one at a
    time — O(1) memory no matter how many arrivals are consumed.
    Non-homogeneous rates (diurnal/bursty) are sampled exactly by Lewis &
    Shedler thinning against the shape's peak rate.
    """

    def __init__(
        self,
        mean_gap_ns: float,
        shape: RateShape = RateShape(),
        rng: SeedLike = None,
        start_ns: float = 0.0,
    ) -> None:
        if mean_gap_ns <= 0:
            raise WorkloadError(f"mean gap must be positive: {mean_gap_ns}")
        self.mean_gap_ns = mean_gap_ns
        self.shape = shape
        self.rng = make_rng(rng)
        self.start_ns = start_ns

    def __iter__(self) -> Iterator[float]:
        rng = self.rng
        shape = self.shape
        t = self.start_ns
        if shape.kind == "steady":
            gap = self.mean_gap_ns
            while True:
                t += float(rng.exponential(gap))
                yield t
        else:
            peak_gap = self.mean_gap_ns / shape.peak_factor
            peak = shape.peak_factor
            while True:
                # Thinning: candidate arrivals at the peak rate, accepted
                # with probability rate(t)/peak_rate.
                while True:
                    t += float(rng.exponential(peak_gap))
                    if rng.random() * peak <= shape.factor(t):
                        break
                yield t


class Workload(abc.ABC):
    """One workload: a frozen spec plus a lazy arrival stream.

    ``arrivals()`` yields the workload's items in arrival order —
    :class:`~repro.fabrics.base.OfferedMessage` for fabric workloads,
    :class:`~repro.workloads.ycsb.YcsbOp` for closed-loop op streams —
    producing each item on demand.  Iterating a workload twice yields the
    same sequence (each call builds fresh substream RNGs from the spec's
    seed).
    """

    #: Registry key of the workload family (``synthetic``, ``incast``, ...).
    kind: str = "workload"

    def __init__(self, spec: Any) -> None:
        self.spec = spec

    @abc.abstractmethod
    def arrivals(self) -> Iterator[Any]:
        """Lazily yield the workload's items in arrival order."""

    def __iter__(self) -> Iterator[Any]:
        return self.arrivals()

    @property
    def message_count(self) -> Optional[int]:
        """Total items the stream will yield, when bounded (else None)."""
        return getattr(self.spec, "message_count", None)

    def materialize(self, limit: Optional[int] = None) -> List[Any]:
        """The stream as a list (the legacy shims' return shape).

        ``limit`` truncates; prefer consuming :meth:`arrivals` lazily —
        materializing is O(n) memory and exists for compatibility and
        tests.
        """
        it = self.arrivals()
        if limit is None:
            return list(it)
        out = []
        for item in it:
            out.append(item)
            if len(out) >= limit:
                break
        return out

    def describe(self) -> str:
        count = self.message_count
        return f"{self.kind}[{count if count is not None else '∞'}]"


# --------------------------------------------------------------------------- #
# Spec registry                                                               #
# --------------------------------------------------------------------------- #

#: kind -> (spec type, spec factory from kwargs, workload factory).
_REGISTRY: Dict[str, Tuple[Type[Any], Callable[[Any], Workload]]] = {}


def register_workload(
    kind: str,
    spec_type: Type[Any],
    factory: Callable[[Any], Workload],
) -> None:
    """Register a workload family: its spec dataclass and stream factory.

    Idempotent for an identical (spec_type, factory) pair; re-registering
    a kind with different machinery is a configuration error.
    """
    existing = _REGISTRY.get(kind)
    if existing is not None and existing != (spec_type, factory):
        raise WorkloadError(f"workload kind {kind!r} already registered")
    _REGISTRY[kind] = (spec_type, factory)


def _ensure_registered() -> None:
    # The streaming module registers every built-in family on import.
    import repro.workloads.streaming  # noqa: F401


def workload_kinds() -> List[str]:
    """Registered workload family names, sorted."""
    _ensure_registered()
    return sorted(_REGISTRY)


def workload_from_spec(spec: Any, **overrides: Any) -> Workload:
    """Build the streaming workload for a spec.

    Accepts either a registered spec dataclass (``SyntheticSpec``,
    ``IncastSpec``, ``ShuffleSpec``, ``TraceSpec``, ``YcsbSpec``) or a
    mapping with a ``"kind"`` key whose remaining entries are the spec's
    constructor arguments::

        workload_from_spec(SyntheticSpec(...))
        workload_from_spec({"kind": "incast", "num_nodes": 8, ...})
    """
    _ensure_registered()
    if isinstance(spec, dict):
        params = dict(spec)
        try:
            kind = params.pop("kind")
        except KeyError:
            raise WorkloadError(
                f"mapping specs need a 'kind' key (known: {', '.join(sorted(_REGISTRY))})"
            ) from None
        try:
            spec_type, factory = _REGISTRY[kind]
        except KeyError:
            raise WorkloadError(
                f"unknown workload kind {kind!r} (known: {', '.join(sorted(_REGISTRY))})"
            ) from None
        params.update(overrides)
        return factory(spec_type(**params))
    for spec_type, factory in _REGISTRY.values():
        if type(spec) is spec_type:
            return factory(spec)
    raise WorkloadError(
        f"no workload registered for spec type {type(spec).__name__!r} "
        f"(known kinds: {', '.join(sorted(_REGISTRY))})"
    )


def materialize(spec_or_workload: Any, limit: Optional[int] = None) -> List[Any]:
    """Materialize a spec or workload into a list (compatibility helper)."""
    workload = (
        spec_or_workload
        if isinstance(spec_or_workload, Workload)
        else workload_from_spec(spec_or_workload)
    )
    return workload.materialize(limit)


# --------------------------------------------------------------------------- #
# Streaming injection                                                         #
# --------------------------------------------------------------------------- #


class WorkloadFeeder:
    """Feeds a message stream into a simulator lazily, chunk by chunk.

    Instead of scheduling every arrival up front (O(n) pending events and
    O(n) resident messages), the feeder pulls ``chunk`` arrivals at a
    time, bulk-injects them with ``schedule_batch``, and re-arms itself
    via ``post_at`` at the chunk's horizon — so at any instant the
    pending-event set holds at most one chunk of future arrivals.  The
    kernel's deterministic ``(time, priority, seq)`` ordering makes a fed
    run replay identically to a schedule-everything-up-front run of the
    same stream.
    """

    def __init__(
        self,
        sim: Any,
        workload: "Workload | Iterable[Any]",
        launch: Callable[[Any], None],
        chunk: int = 256,
    ) -> None:
        if chunk < 1:
            raise WorkloadError(f"chunk must be >= 1: {chunk}")
        self.sim = sim
        self._iter = iter(workload)
        self.launch = launch
        self.chunk = chunk
        self.fed = 0
        self._exhausted = False

    def start(self) -> "WorkloadFeeder":
        """Inject the first chunk; returns self for chaining."""
        self._pump()
        return self

    def _pump(self) -> None:
        if self._exhausted:
            return
        launch = self.launch
        entries = []
        last_t = None
        for _ in range(self.chunk):
            try:
                message = next(self._iter)
            except StopIteration:
                self._exhausted = True
                break
            t = getattr(message, "arrival_ns", None)
            if t is None:
                raise WorkloadError(
                    f"feeder needs timestamped arrivals, got {type(message).__name__}"
                )
            entries.append((t, lambda m=message: launch(m)))
            last_t = t
        if entries:
            self.fed += len(entries)
            self.sim.schedule_batch(entries, absolute=True)
        if not self._exhausted and last_t is not None:
            # Re-arm at the chunk horizon: later arrivals are >= last_t
            # (streams are time-ordered), so pulling there never schedules
            # into the past.  The pump's seq is newer than the chunk's
            # same-time launches, so it runs after them — identical total
            # order to a monolithic batch.
            self.sim.post_at(last_t, self._pump)


__all__ = [
    "ArrivalProcess",
    "RATE_SHAPES",
    "RateShape",
    "Workload",
    "WorkloadFeeder",
    "materialize",
    "register_workload",
    "substream",
    "workload_from_spec",
    "workload_kinds",
]
