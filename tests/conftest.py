"""Shared test configuration: hypothesis profiles and the ``kernel`` fixture.

CI runs with ``HYPOTHESIS_PROFILE=ci`` so property tests are derandomized
(fixed example generation) and never flake on shrink deadlines; local
runs keep hypothesis's default randomized exploration.
"""

import os

import pytest
from hypothesis import HealthCheck, settings
from reference_kernel import KERNEL_IDS, KERNELS

from repro.sim import engine

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)
# Nightly: randomized and much deeper than the per-PR profiles; flushes
# out the corner cases derandomized CI exploration cannot reach.
settings.register_profile(
    "long",
    max_examples=1_000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(params=list(KERNEL_IDS), ids=list(KERNEL_IDS.values()))
def kernel(request, monkeypatch):
    """Run the test once on the heap and once on the sorted-list reference.

    The reference replaces ``repro.sim.engine._HeapKernel`` for the
    test's duration, in this process only, so runs stay at ``jobs=1``.
    Tests with other parametrize marks use ``reference_kernel.each_kernel``
    to place the kernel id among theirs.
    """
    monkeypatch.setattr(engine, "_HeapKernel", KERNELS[request.param])
    return request.param
