"""Golden-seed bit-identity tests for the six baseline fabrics.

``tests/fixtures/baseline_golden.json`` pins PFC, DCTCP, pFabric, CXL,
IRD and Fastpass on three loaded cases (64 B at load 0.9 and two
incasts).  These tests replay every case on the heap kernel and
on the sorted-list reference (``tests/reference_kernel.py``) and assert the same completion records, incomplete count and
stats — so queueing-substrate work can prove it moved no simulated
result.
"""

from __future__ import annotations

import json

import pytest
from reference_kernel import each_kernel

from tests.fixtures.capture_baseline_golden import (
    BASELINES,
    FIXTURE_PATH,
    run_case,
    snapshot,
)

with open(FIXTURE_PATH, encoding="utf-8") as fh:
    _GOLDEN = json.load(fh)

RUNS = [
    (name, fabric)
    for name in sorted(_GOLDEN["cases"])
    for fabric in BASELINES
]


@each_kernel
@pytest.mark.parametrize("name,fabric", RUNS)
def test_baseline_replays_golden_fixture(name: str, fabric: str, kernel: str) -> None:
    golden = _GOLDEN["cases"][name]
    want = golden["fabrics"][fabric]
    snap = snapshot(run_case(golden["config"], fabric))
    assert snap["incomplete"] == want["incomplete"]
    got_times = dict(snap["records"])
    want_times = {uid: t for uid, t in want["records"]}
    assert got_times.keys() == want_times.keys(), "completed message set diverged"
    diffs = {
        uid: (got_times[uid], want_times[uid])
        for uid in want_times
        if got_times[uid] != want_times[uid]
    }
    assert not diffs, f"completion times diverged for {len(diffs)} messages: " \
        f"{dict(list(diffs.items())[:5])}"
    assert snap["stats"] == want["stats"]


def _runs_of(fabric: str):
    return [
        case["fabrics"][fabric]
        for case in _GOLDEN["cases"].values()
        if fabric in case["fabrics"]
    ]


def test_fixture_covers_drops_and_lossless_divergence() -> None:
    """The cases must keep engaging each baseline's defining mechanism."""
    for lossy in ("DCTCP", "pFabric"):
        assert any(
            run["stats"].get("frames_dropped", 0) > 0 for run in _runs_of(lossy)
        ), f"no case drops a frame under {lossy}"
    cases = _GOLDEN["cases"].values()
    assert any(
        c["fabrics"]["PFC"]["records"] != c["fabrics"]["DCTCP"]["records"]
        for c in cases
    ), "PFC pause never changes a completion relative to DCTCP"
    assert any(
        c["fabrics"]["CXL"]["records"] != c["fabrics"]["PFC"]["records"]
        for c in cases
    ), "CXL credits never change a completion relative to PFC"
