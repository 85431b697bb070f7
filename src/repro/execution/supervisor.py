"""Supervised cell execution: timeouts, worker-death detection, retries.

The experiment runner used to fan cells out through a bare
``Pool.imap_unordered``: one crashed worker aborted the whole grid and
discarded every completed cell, and a hung cell blocked the sweep
forever.  :func:`supervised_map` replaces it with a supervisor that owns
one dedicated worker process per slot (up to ``jobs``), each driven over
a duplex pipe:

* **Timeouts** — every dispatched cell gets a wall-clock budget.  With
  no explicit ``REPRO_CELL_TIMEOUT_S``, the budget adapts: once sibling
  cells have completed, it is ``timeout_scale ×`` the slowest observed
  cell (floored at ``timeout_floor_s``); before any cell has finished, a
  generous ``default_timeout_s`` applies, so *no wait is ever unbounded*.
* **Death detection** — the supervisor waits on each worker's pipe *and*
  its ``Process.sentinel``, so an OOM-killed or chaos-killed worker is
  noticed immediately, not at some never-arriving ``recv``.
* **Retries** — failed, hung, or crashed cells are retried up to
  ``max_attempts`` times with deterministic seeded exponential backoff
  plus jitter.  A retried cell re-runs the same pure ``run_cell`` on the
  same :class:`~repro.experiments.runner.Cell` (same seed), so its
  result is bit-identical by construction and a retried grid reduces to
  the same artifact as a fault-free run.
* **Incidents** — every anomaly (worker death, timeout, in-cell
  exception) is recorded as a structured incident dict that lands in the
  run artifact, so a degraded nightly sweep is diagnosable after the
  fact.

A cell that exhausts its attempts raises
:class:`~repro.errors.ExecutionError` naming the cell and its failure
history; the supervisor then tears every worker down (terminate →
join → kill), leaving no orphan processes on any exit path.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from multiprocessing import connection, get_context
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError, ExecutionError
from repro.execution.chaos import apply_cell_chaos

#: Explicit per-cell wall-clock budget, in seconds (overrides adaptation).
TIMEOUT_ENV = "REPRO_CELL_TIMEOUT_S"

#: Per-cell attempt budget (first run + retries).
MAX_ATTEMPTS_ENV = "REPRO_CELL_MAX_ATTEMPTS"

#: Base backoff delay in seconds (0 disables backoff sleeps).
BACKOFF_ENV = "REPRO_RETRY_BACKOFF_S"


@dataclass(frozen=True)
class SupervisionPolicy:
    """Retry/timeout policy for supervised cell execution.

    ``timeout_s`` pins an explicit per-cell budget; when ``None`` the
    budget adapts to the grid: ``timeout_scale`` times the slowest
    completed cell so far (never below ``timeout_floor_s``), and
    ``default_timeout_s`` until the first cell completes.  Backoff before
    attempt ``n+1`` is ``min(cap, base · 2^(n-1))`` scaled by a jitter
    factor in ``[0.5, 1.5)`` drawn from a RNG seeded with
    ``(seed, experiment, cell, attempt)`` — deterministic for a given
    grid, decorrelated across cells.
    """

    max_attempts: int = 3
    timeout_s: Optional[float] = None
    timeout_scale: float = 8.0
    timeout_floor_s: float = 5.0
    default_timeout_s: float = 600.0
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        for name in ("timeout_scale", "timeout_floor_s", "default_timeout_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigError("backoff delays cannot be negative")

    @classmethod
    def from_env(cls, **overrides: Any) -> "SupervisionPolicy":
        """Build a policy from the ``REPRO_*`` env knobs plus overrides."""
        fields: Dict[str, Any] = {}
        try:
            raw = os.environ.get(TIMEOUT_ENV, "")
            if raw:
                fields["timeout_s"] = float(raw)
            raw = os.environ.get(MAX_ATTEMPTS_ENV, "")
            if raw:
                fields["max_attempts"] = int(raw)
            raw = os.environ.get(BACKOFF_ENV, "")
            if raw:
                fields["backoff_base_s"] = float(raw)
        except ValueError as exc:
            raise ConfigError(f"bad supervision env value: {exc}") from None
        fields.update(overrides)
        return cls(**fields)

    def cell_timeout_s(self, prior_wall_s: Optional[float]) -> float:
        """The wall-clock budget for one attempt, given prior knowledge."""
        if self.timeout_s is not None:
            return self.timeout_s
        if prior_wall_s:
            return max(self.timeout_floor_s, self.timeout_scale * prior_wall_s)
        return self.default_timeout_s

    def backoff_s(self, experiment: str, index: int, attempt: int) -> float:
        """Deterministic jittered delay before retrying ``attempt + 1``."""
        if self.backoff_base_s <= 0:
            return 0.0
        rng = random.Random(f"{self.seed}:{experiment}:{index}:{attempt}")
        base = min(
            self.backoff_cap_s, self.backoff_base_s * (2 ** max(0, attempt - 1))
        )
        return base * (0.5 + rng.random())


def _cell_worker(conn: Any, inherited: Any) -> None:
    """Worker loop: receive ``(name, index, cell, attempt)``, run, reply.

    Lives at module level so spawn-based contexts can pickle it; the
    runner import is deferred to avoid a circular import at module load
    (the runner imports this module).
    """
    # Close inherited copies of the supervisor's pipe ends (our own and
    # those of workers forked before us): with stray copies open, a dead
    # supervisor never surfaces as EOF and orphan workers linger forever.
    for end in inherited:
        try:
            end.close()
        except OSError:  # pragma: no cover - already closed
            pass
    from repro.experiments.runner import _timed_cell, get_experiment

    try:
        while True:
            payload = conn.recv()
            if payload is None:
                return
            name, index, cell, attempt = payload
            apply_cell_chaos(index, attempt)
            try:
                value, perf = _timed_cell(get_experiment(name), cell)
            except BaseException as exc:  # noqa: BLE001 - report, stay alive
                conn.send(("error", index, f"{type(exc).__name__}: {exc}"))
                continue
            try:
                conn.send(("ok", index, value, perf))
            except Exception as exc:  # unpicklable result
                conn.send(("error", index, f"result not sendable: {exc}"))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _WorkerHandle:
    """One supervised worker process and its duplex pipe."""

    __slots__ = ("process", "conn", "attempt")

    def __init__(self, ctx: Any, sibling_conns: Sequence[Any]) -> None:
        self.conn, child = ctx.Pipe(duplex=True)
        # Daemonic, like the Pool workers they replace: multiprocessing
        # terminates them when the parent exits.
        self.process = ctx.Process(
            target=_cell_worker,
            args=(child, [self.conn, *sibling_conns]),
            daemon=True,
            name="cell-worker",
        )
        self.process.start()
        child.close()
        #: In-flight work: (index, attempt, deadline, budget_s) or None.
        self.attempt: Optional[Tuple[int, int, float, float]] = None

    def stop(self, *, force: bool) -> None:
        """Tear the worker down; never leaves a live child behind."""
        if not force:
            try:
                self.conn.send(None)
            except (OSError, ValueError):
                force = True
        try:
            self.conn.close()
        except OSError:
            pass
        if force:
            # Busy, hung, or already dead: a graceful exit is off the
            # table, so skip straight to terminate.
            self.process.terminate()
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - hard-stuck child
            self.process.kill()
            self.process.join(timeout=5)


def supervised_map(
    name: str,
    cells: Sequence[Any],
    jobs: int,
    policy: Optional[SupervisionPolicy] = None,
    *,
    mp_context: Optional[str] = None,
    prefilled: Optional[Mapping[int, Tuple[Any, Dict[str, Any]]]] = None,
    on_complete: Optional[Callable[[int, Any, Any, Dict[str, Any]], None]] = None,
) -> Tuple[List[Any], List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Run ``cells`` of experiment ``name`` under supervision.

    Returns ``(results, perf, incidents)`` in grid order.  ``prefilled``
    maps cell indices to ``(result, perf)`` replayed from a checkpoint —
    those cells are not executed.  ``on_complete`` fires once per newly
    completed cell (the checkpoint journal hook).
    """
    policy = policy or SupervisionPolicy.from_env()
    results: List[Any] = [None] * len(cells)
    perf: List[Dict[str, Any]] = [{} for _ in cells]
    incidents: List[Dict[str, Any]] = []
    pending: List[Tuple[float, int, int]] = []  # (not_before, index, attempt)
    for index in range(len(cells)):
        if prefilled and index in prefilled:
            results[index], perf[index] = prefilled[index]
        else:
            pending.append((0.0, index, 1))
    remaining = len(pending)
    if remaining == 0:
        return results, perf, incidents

    ctx = get_context(mp_context)
    max_workers = min(jobs, remaining)
    workers: List[_WorkerHandle] = []
    idle: List[_WorkerHandle] = []
    completed_walls: List[float] = []

    def note(kind: str, index: int, attempt: int, detail: str) -> None:
        incidents.append(
            {
                "kind": kind,
                "cell": index,
                "key": cells[index].key,
                "attempt": attempt,
                "detail": detail,
            }
        )

    def retire(worker: _WorkerHandle, *, force: bool) -> None:
        workers.remove(worker)
        if worker in idle:
            idle.remove(worker)
        worker.stop(force=force)

    def requeue(kind: str, index: int, attempt: int, detail: str) -> None:
        note(kind, index, attempt, detail)
        if attempt >= policy.max_attempts:
            history = "; ".join(
                f"attempt {i['attempt']}: {i['kind']} ({i['detail']})"
                for i in incidents
                if i["cell"] == index
            )
            raise ExecutionError(
                f"cell {index} ({cells[index].key}) of {name!r} failed all "
                f"{policy.max_attempts} attempt(s) — {history}"
            )
        delay = policy.backoff_s(name, index, attempt)
        pending.append((time.monotonic() + delay, index, attempt + 1))

    try:
        while remaining:
            now = time.monotonic()
            # Dispatch every eligible pending attempt onto an idle worker.
            pending.sort()
            while pending and pending[0][0] <= now:
                if not idle:
                    if len(workers) >= max_workers:
                        break
                    worker = _WorkerHandle(ctx, [w.conn for w in workers])
                    workers.append(worker)
                    idle.append(worker)
                _, index, attempt = pending.pop(0)
                worker = idle.pop()
                prior = max(completed_walls) if completed_walls else None
                budget = policy.cell_timeout_s(prior)
                try:
                    worker.conn.send((name, index, cells[index], attempt))
                except (OSError, ValueError):
                    retire(worker, force=True)
                    requeue(
                        "worker_death", index, attempt,
                        "worker pipe closed before dispatch",
                    )
                    continue
                worker.attempt = (index, attempt, now + budget, budget)

            busy = [w for w in workers if w.attempt is not None]
            if not busy:
                if pending:
                    pending.sort()
                    time.sleep(
                        min(0.5, max(0.0, pending[0][0] - time.monotonic()))
                    )
                    continue
                raise ExecutionError(  # pragma: no cover - invariant guard
                    f"supervisor stalled with {remaining} cell(s) remaining"
                )

            # Block until a result arrives, a worker dies, a deadline
            # expires, or a backed-off retry becomes eligible.
            wait_until = min(w.attempt[2] for w in busy)
            if pending:
                wait_until = min(wait_until, pending[0][0])
            wait_s = max(0.0, wait_until - time.monotonic())
            watched = [w.conn for w in busy] + [w.process.sentinel for w in busy]
            ready = set(connection.wait(watched, timeout=wait_s))

            for worker in busy:
                index, attempt, deadline, budget = worker.attempt
                if worker.conn in ready or worker.conn.poll(0):
                    # Result (or an in-cell error report) first: a worker
                    # that answered and *then* died still counts.
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        worker.attempt = None
                        retire(worker, force=True)  # joins, so exitcode is set
                        requeue(
                            "worker_death", index, attempt,
                            f"worker closed the pipe mid-result (exit code "
                            f"{worker.process.exitcode})",
                        )
                        continue
                    worker.attempt = None
                    if message[0] == "ok":
                        _, midx, value, cell_perf = message
                        cell_perf["attempts"] = attempt
                        results[midx] = value
                        perf[midx] = cell_perf
                        completed_walls.append(cell_perf["wall_s"])
                        remaining -= 1
                        idle.append(worker)
                        if on_complete is not None:
                            on_complete(midx, cells[midx], value, cell_perf)
                    else:
                        _, midx, detail = message
                        idle.append(worker)
                        requeue("exception", midx, attempt, detail)
                elif (
                    worker.process.sentinel in ready
                    and not worker.process.is_alive()
                ):
                    worker.attempt = None
                    code = worker.process.exitcode
                    retire(worker, force=True)
                    requeue(
                        "worker_death", index, attempt,
                        f"worker exited with code {code} while running the cell",
                    )
                elif time.monotonic() >= deadline:
                    worker.attempt = None
                    retire(worker, force=True)
                    requeue(
                        "timeout", index, attempt,
                        f"cell exceeded its {budget:.3g}s wall-clock budget",
                    )
        return results, perf, incidents
    finally:
        for worker in list(workers):
            retire(worker, force=worker.attempt is not None)
