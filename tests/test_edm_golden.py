"""Golden-seed bit-identity tests for the EDM fabric.

``tests/fixtures/edm_golden.json`` was captured before the hot-path
overhaul (PR 7); these tests assert the optimized model still replays
*exactly* the same completion records and stats, on the heap kernel and
on the sorted-list reference (``tests/reference_kernel.py``).  Any diff
here means the optimization changed observable behaviour, not just speed.
"""

from __future__ import annotations

import json
import os

import pytest
from reference_kernel import each_kernel

from tests.fixtures.capture_edm_golden import FIXTURE_PATH, run_case, snapshot

with open(FIXTURE_PATH, encoding="utf-8") as fh:
    _GOLDEN = json.load(fh)

CASE_NAMES = sorted(_GOLDEN["cases"])


@each_kernel
@pytest.mark.parametrize("name", CASE_NAMES)
def test_edm_replays_golden_fixture(name: str, kernel: str) -> None:
    golden = _GOLDEN["cases"][name]
    result = run_case(golden["config"])
    snap = snapshot(result)
    assert snap["incomplete"] == golden["incomplete"]
    got = {uid: t for uid, t in snap["records"]}
    want = {uid: t for uid, t in golden["records"]}
    assert got.keys() == want.keys(), "completed message set diverged"
    diffs = {
        uid: (got[uid], want[uid])
        for uid in want
        if got[uid] != want[uid]
    }
    assert not diffs, f"completion times diverged for {len(diffs)} messages: " \
        f"{dict(list(diffs.items())[:5])}"
    assert snap["stats"] == golden["stats"]


def test_fixture_covers_multichunk_and_dram() -> None:
    """The fixture must keep exercising the coalesced/multi-chunk paths."""
    sizes = {c["config"]["size"] for c in _GOLDEN["cases"].values()}
    assert any(s > 256 for s in sizes), "need a multi-chunk case"
    assert any(c["config"]["dram"] for c in _GOLDEN["cases"].values()), (
        "need a nonzero-DRAM case (pending-grant drain path)"
    )


def test_fixture_file_tracked() -> None:
    assert os.path.exists(FIXTURE_PATH)
