"""A sorted-list event kernel: the oracle the tuple heap is replayed against.

:class:`SortedListKernel` keeps every pending entry in one ascending list
(``bisect.insort`` on push, eager removal on cancel), so it shares no
algorithm with ``repro.sim.engine._HeapKernel``: no sifting, no
tombstones, no compaction.  Only the order key ``(time, priority, seq)``
is common, and that key is what the equivalence tests pin.

:func:`installed` swaps the engine's kernel class for the duration of a
``with`` block; the ``kernel`` fixture in ``conftest.py`` does the same
for a whole test.  Either way the swap lives in this process only, so a
run through the reference keeps ``jobs=1``.
"""

from bisect import bisect_left, insort
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.sim import engine


class SortedListKernel:
    """Pending events in one list sorted by ``(time, priority, seq)``."""

    #: Cancelled entries leave the list at once, so none linger.
    tombstones = 0

    def __init__(self):
        self._entries = []

    def __len__(self):
        return len(self._entries)

    def push_raw(self, entry):
        insort(self._entries, entry)

    def push_raw_batch(self, entries):
        for entry in entries:
            insort(self._entries, entry)

    def on_cancel(self, event):
        # A 3-tuple key sorts just before the 4-tuple entry it prefixes.
        index = bisect_left(self._entries, (event.time, event.priority, event.seq))
        del self._entries[index]
        event.in_queue = False

    def run(self, sim, until):
        entries = self._entries
        limit = engine.MAX_EVENT_TIME if until is None else until
        processed = 0
        try:
            while entries and entries[0][0] <= limit:
                time, _, _, payload = entries.pop(0)
                if type(payload) is engine._Event:
                    payload.in_queue = False
                    payload = payload.callback
                sim._now = time
                payload()
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
