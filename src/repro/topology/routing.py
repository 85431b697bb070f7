"""Deterministic ECMP: per-pair spine selection by seeded integer hashing.

Real switches pick an equal-cost path by hashing the flow 5-tuple with a
boot-time salt.  The simulator's analogue must satisfy the determinism
contract (docs/DETERMINISM.md): path choice has to be a pure function of
the cluster seed and the (src, dst) pair — never of RNG *draw order*,
dict iteration, or which component evaluates it.  :class:`EcmpHasher`
therefore derives its salt from the cluster seed with splitmix64-style
integer mixing instead of drawing from the run's
``numpy.random.Generator``: the RNG call sequence every model component
relies on is left untouched, yet two clusters with different seeds load
the spines differently, exactly like re-salting a real switch.

Hashing per *pair* (not per frame) keeps all frames of a (src, dst) flow
on one spine, so ECMP never reorders a flow — the property the queueing
substrate's in-order delivery accounting assumes.
"""

from __future__ import annotations

from repro.errors import TopologyError

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit avalanche mix."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class EcmpHasher:
    """Maps (src, dst) host pairs onto a spine index, seed-stably.

    The salt is a pure function of the cluster seed; ``spine_for`` is a
    pure function of (salt, src, dst).  Same seed → same path table on
    every run and kernel; different seeds → statistically
    independent spine loading.
    """

    __slots__ = ("salt", "spines")

    def __init__(self, seed: int, spines: int) -> None:
        if spines < 1:
            raise TopologyError(f"ECMP needs >= 1 spine: {spines}")
        self.salt = _mix64(seed & _MASK64)
        self.spines = spines

    def spine_for(self, src: int, dst: int) -> int:
        """The spine carrying cross-leaf traffic from ``src`` to ``dst``."""
        return _mix64(_mix64(self.salt ^ (src & _MASK64)) ^ (dst & _MASK64)) % self.spines


__all__ = ["EcmpHasher"]
