"""A sorted-list event kernel: the oracle the tuple heap is replayed against.

:class:`SortedListKernel` keeps every pending entry in one ascending list
(``bisect.insort`` on push, pop from the front), so it shares no
algorithm with ``repro.sim.engine._HeapKernel``: no sifting.  Only the
order key ``(time, priority, seq)`` is common, and that key is what the
equivalence tests pin.

:func:`installed` swaps the engine's kernel class for the duration of a
``with`` block; the ``kernel`` fixture in ``conftest.py`` does the same
for a whole test.  Either way the swap lives in this process only, so a
run through the reference keeps ``jobs=1``.
"""

from bisect import insort
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.sim import engine


class SortedListKernel:
    """Pending ``(time, priority, seq, fn, arg)`` entries in one list
    sorted by ``(time, priority, seq)``."""

    def __init__(self):
        self._entries = []

    def __len__(self):
        return len(self._entries)

    def push_raw(self, entry):
        insort(self._entries, entry)

    def run(self, sim, until):
        entries = self._entries
        limit = engine.MAX_EVENT_TIME if until is None else until
        processed = 0
        try:
            while entries and entries[0][0] <= limit:
                time, _, _, fn, arg = entries.pop(0)
                sim._now = time
                fn(arg)
                processed += 1
            if until is not None:
                sim._now = until
        finally:
            sim._events_processed += processed
            engine._EVENTS_EXECUTED += processed


#: Kernel classes by name: the engine's own and the reference.
KERNELS = {"heap": engine._HeapKernel, "reference": SortedListKernel}

#: Pytest ids of the two kernel runs.  The reference run keeps the id
#: ``calendar``, the kernel it replaced as the heap's oracle, so the ids
#: of the tests that replay both kernels stay stable.
KERNEL_IDS = {"heap": "heap", "reference": "calendar"}

#: Parametrizes the ``kernel`` fixture in place: among a test's other
#: parametrize marks, its id lands where the decorator sits.
each_kernel = pytest.mark.parametrize(
    "kernel", list(KERNEL_IDS), ids=list(KERNEL_IDS.values()), indirect=True
)


@contextmanager
def installed(name):
    """Build every :class:`~repro.sim.engine.Simulator` on kernel ``name``."""
    with mock.patch.object(engine, "_HeapKernel", KERNELS[name]):
        yield


def replay_on(name, run):
    """``run()``'s result with every simulator built on kernel ``name``."""
    with installed(name):
        return run()
